package bus

import (
	"testing"
	"testing/quick"
)

func TestRequesterString(t *testing.T) {
	if ReqDCache.String() != "dcache" || ReqICache.String() != "icache" || ReqPrefetch.String() != "prefetch" {
		t.Errorf("requester names wrong")
	}
	if Requester(9).String() != "requester(9)" {
		t.Errorf("unknown requester string wrong")
	}
}

func TestSingleGrantPerCycle(t *testing.T) {
	a := New()
	a.Enqueue(Request{From: ReqICache, Tag: 1})
	a.Enqueue(Request{From: ReqICache, Tag: 2})

	r, ok := a.Grant(10)
	if !ok || r.Tag != 1 {
		t.Fatalf("first grant = %+v, %v", r, ok)
	}
	if _, ok := a.Grant(10); ok {
		t.Errorf("second grant in the same cycle should be refused")
	}
	r, ok = a.Grant(11)
	if !ok || r.Tag != 2 {
		t.Errorf("next cycle grant = %+v, %v", r, ok)
	}
	if _, ok := a.Grant(12); ok {
		t.Errorf("empty arbiter should not grant")
	}
	if a.Grants() != 2 {
		t.Errorf("Grants = %d", a.Grants())
	}
}

func TestPriorityOrder(t *testing.T) {
	a := New()
	a.Enqueue(Request{From: ReqPrefetch, Tag: 100})
	a.Enqueue(Request{From: ReqICache, Tag: 200})
	a.Enqueue(Request{From: ReqDCache, Tag: 300})

	// Priority: D-cache, then I-cache, then prefetch.
	want := []uint64{300, 200, 100}
	for i, w := range want {
		r, ok := a.Grant(uint64(i))
		if !ok || r.Tag != w {
			t.Errorf("grant %d = %+v, want tag %d", i, r, w)
		}
	}
	// Conflicts: in cycle 0 and 1 at least one other class was waiting.
	if a.conflicts != 2 {
		t.Errorf("conflicts = %d, want 2", a.conflicts)
	}
}

func TestFIFOWithinClass(t *testing.T) {
	a := New()
	for i := 0; i < 5; i++ {
		a.Enqueue(Request{From: ReqPrefetch, Tag: uint64(i)})
	}
	for i := 0; i < 5; i++ {
		r, ok := a.Grant(uint64(i))
		if !ok || r.Tag != uint64(i) {
			t.Errorf("grant %d = %+v", i, r)
		}
	}
}

func TestPendingAndFlush(t *testing.T) {
	a := New()
	a.Enqueue(Request{From: ReqPrefetch, Tag: 1})
	a.Enqueue(Request{From: ReqPrefetch, Tag: 2})
	a.Enqueue(Request{From: ReqDCache, Tag: 3})
	if a.Pending() != 3 || a.queues[ReqPrefetch].n != 2 || a.queues[ReqDCache].n != 1 || a.queues[ReqICache].n != 0 {
		t.Errorf("pending counts wrong: %d", a.Pending())
	}
	if n := a.Flush(ReqPrefetch); n != 2 {
		t.Errorf("Flush dropped %d, want 2", n)
	}
	if a.Pending() != 1 {
		t.Errorf("Pending after flush = %d", a.Pending())
	}
	if a.Flush(Requester(42)) != 0 {
		t.Errorf("bogus requester flush should be 0")
	}
	// Bogus requester on enqueue falls into the lowest-priority class.
	a.Enqueue(Request{From: Requester(42), Tag: 9})
	if a.queues[ReqPrefetch].n != 1 {
		t.Errorf("bogus requester should be demoted to prefetch class")
	}
}

// TestDCacheAlwaysWinsProperty: whatever the queue mix, a granted prefetch
// request implies no demand request was pending that cycle.
func TestDCacheAlwaysWinsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a := New()
		cycle := uint64(0)
		for _, op := range ops {
			switch op % 5 {
			case 0:
				a.Enqueue(Request{From: ReqDCache, Tag: uint64(op)})
			case 1:
				a.Enqueue(Request{From: ReqICache, Tag: uint64(op)})
			case 2:
				a.Enqueue(Request{From: ReqPrefetch, Tag: uint64(op)})
			default:
				dPending := a.queues[ReqDCache].n
				iPending := a.queues[ReqICache].n
				r, ok := a.Grant(cycle)
				cycle++
				if !ok {
					continue
				}
				if r.From == ReqPrefetch && (dPending > 0 || iPending > 0) {
					return false
				}
				if r.From == ReqICache && dPending > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConservationProperty: every enqueued request is eventually granted
// exactly once when the arbiter is drained.
func TestConservationProperty(t *testing.T) {
	f := func(classes []uint8) bool {
		a := New()
		for i, c := range classes {
			a.Enqueue(Request{From: Requester(c % 3), Tag: uint64(i)})
		}
		seen := make(map[uint64]int)
		cycle := uint64(0)
		for a.Pending() > 0 {
			r, ok := a.Grant(cycle)
			cycle++
			if !ok {
				return false // pending but nothing granted: livelock
			}
			seen[r.Tag]++
		}
		if len(seen) != len(classes) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
