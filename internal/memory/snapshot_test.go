package memory

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"clgp/internal/bus"
	"clgp/internal/isa"
	"clgp/internal/snap"
	"clgp/internal/stats"
)

// slotState builds a hierarchy whose slot bookkeeping has been through
// grants, a swap-remove and a tag reuse: slots [data, p1, p2, p3, free],
// freeSlots [4], pfPending [3, 1, 2] (p3 moved to index 0 when p0 was
// granted).
func slotState(t *testing.T) *Hierarchy {
	t.Helper()
	h := MustNew(testConfig(4<<10, false))
	for i := 0; i < 4; i++ {
		h.AccessIPrefetch(isa.Addr(0x40_0000+i*64), 0)
	}
	h.AccessData(0x9000_0000, 0, false)
	h.Tick(0) // grants the data request (slot 4)
	h.Tick(1) // grants p0 (slot 0); p3 takes its pending index
	h.AccessData(0x9000_1000, 2, false)
	if len(h.slots) != 5 || len(h.freeSlots) != 1 || h.freeSlots[0] != 4 ||
		len(h.pfPending) != 3 || h.pfPending[0] != 3 || h.slots[0].Kind != KindData {
		t.Fatalf("unexpected slot state: %d slots, free %v, pending %v", len(h.slots), h.freeSlots, h.pfPending)
	}
	return h
}

// saveHierarchy encodes the request table and the hierarchy as the engine
// snapshot does.
func saveHierarchy(h *Hierarchy) []byte {
	var e snap.Encoder
	s := NewReqSet()
	h.AddLiveRequests(s)
	w := snap.Saver(&e)
	s.Walk(w)
	h.Walk(w, s)
	return e.Bytes()
}

// loadHierarchy restores data into a fresh hierarchy of the test config.
func loadHierarchy(data []byte) (*Hierarchy, error) {
	h := MustNew(testConfig(4<<10, false))
	d := snap.NewDecoder(data)
	s := NewReqSet()
	w := snap.Loader(d)
	s.Walk(w)
	h.Walk(w, s)
	return h, d.Err()
}

func TestSlotStateRoundTrip(t *testing.T) {
	h := slotState(t)
	data := saveHierarchy(h)
	back, err := loadHierarchy(data)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if again := saveHierarchy(back); !bytes.Equal(again, data) {
		t.Fatal("restored hierarchy re-saves to different bytes")
	}
	// Both drain identically: grants, swap-removes and cancellation work on
	// the restored indices.
	for now := uint64(3); now < 6; now++ {
		h.Tick(now)
		back.Tick(now)
	}
	if a, b := h.CancelPrefetches(), back.CancelPrefetches(); a != b {
		t.Fatalf("cancelled %d prefetches after restore, %d straight", b, a)
	}
	if !bytes.Equal(saveHierarchy(h), saveHierarchy(back)) {
		t.Fatal("restored hierarchy diverged from the straight one")
	}
}

// TestLoadStateRejectsImpossibleSlots: slot bookkeeping enqueueBus, Tick and
// untrackPrefetch can never leave must fail the restore with ErrCorrupt
// instead of panicking later in the run.
func TestLoadStateRejectsImpossibleSlots(t *testing.T) {
	cases := []struct {
		name, want string // want: a fragment of the rejection
		mutate     func(h *Hierarchy)
	}{
		{"free tag out of range", "outside", func(h *Hierarchy) { h.freeSlots = append(h.freeSlots, 96) }},
		{"free tag names live slot", "names a live request", func(h *Hierarchy) { h.freeSlots = append(h.freeSlots, 1) }},
		{"free tag repeated", "listed twice", func(h *Hierarchy) { h.freeSlots = append(h.freeSlots, 4) }},
		{"empty slot not free", "missing from the free list", func(h *Hierarchy) { h.freeSlots = h.freeSlots[:0] }},
		{"pending tag out of range", "outside", func(h *Hierarchy) { h.pfPending = append(h.pfPending, 5) }},
		{"pending tag names nil", "names no waiting prefetch", func(h *Hierarchy) { h.pfPending[0] = 4 }},
		{"pending tag names data", "names no waiting prefetch", func(h *Hierarchy) { h.pfPending[0] = 0 }},
		{"pending index mismatch", "records index", func(h *Hierarchy) {
			h.pfPending[0], h.pfPending[1] = h.pfPending[1], h.pfPending[0]
		}},
		{"waiting prefetch untracked", "not pending", func(h *Hierarchy) { h.pfPending = h.pfPending[:2] }},
	}
	for _, tc := range cases {
		h := slotState(t)
		tc.mutate(h)
		_, err := loadHierarchy(saveHierarchy(h))
		if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrCorrupt naming %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadStateRejectsImpossibleBusQueues: the bus arbiter's queued tags
// must be exactly the live slots, each once and in its kind's class. Before
// the check a restore accepted every mutant below; the run then panicked on
// the out-of-range tag in Tick, pushed a granted empty slot onto the free
// list a second time (so two later requests shared one tag), or left a live
// request with no grant ever coming.
func TestLoadStateRejectsImpossibleBusQueues(t *testing.T) {
	// slotState queues the data request in slot 0 as dcache and the
	// prefetches in slots 1-3 as prefetch; slot 4 is free.
	cases := []struct {
		name, want string
		mutate     func(a *bus.Arbiter)
	}{
		{"tag out of range", "tag 96 outside", func(a *bus.Arbiter) {
			a.Enqueue(bus.Request{From: bus.ReqDCache, Tag: 96})
		}},
		{"tag names empty slot", "tag 4, an empty slot", func(a *bus.Arbiter) {
			a.Enqueue(bus.Request{From: bus.ReqICache, Tag: 4})
		}},
		{"tag queued twice", "tag 2 twice", func(a *bus.Arbiter) {
			a.Enqueue(bus.Request{From: bus.ReqPrefetch, Tag: 2})
		}},
		{"tag in another class", "data request in slot 0 as prefetch", func(a *bus.Arbiter) {
			a.Flush(bus.ReqDCache)
			a.Enqueue(bus.Request{From: bus.ReqPrefetch, Tag: 0})
		}},
		{"live slot not queued", "live slot 0 is not queued", func(a *bus.Arbiter) {
			a.Flush(bus.ReqDCache)
		}},
	}
	for _, tc := range cases {
		h := slotState(t)
		tc.mutate(h.arb)
		_, err := loadHierarchy(saveHierarchy(h))
		if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrCorrupt naming %q", tc.name, err, tc.want)
		}
	}
}

// TestSaveRejectsUnregisteredRequest: a slot whose request was never added
// to the identity table cannot be saved. Writing ID 0 would restore the
// slot as empty, so the save fails instead, and names the request.
func TestSaveRejectsUnregisteredRequest(t *testing.T) {
	h := slotState(t)
	var e snap.Encoder
	s := NewReqSet()
	for _, r := range h.slots[1:] {
		s.Add(r) // every live slot but the data request in slot 0
	}
	w := snap.Saver(&e)
	s.Walk(w)
	h.Walk(w, s)
	err := w.Err()
	if err == nil || errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), "data request for line 0x90001000 was never registered") {
		t.Fatalf("save returned %v, want an error naming the unregistered data request", err)
	}
}

// Offsets into a saved request table: the section tag and the entry count,
// then reqBytes per request (line u64, kind u8, source u8, four bools,
// readyAt u64, issuedAt u64, pfIdx i64).
const (
	reqsOff      = 4 + 8
	reqBytes     = 8 + 1 + 1 + 4 + 3*8
	reqKindOff   = 8
	reqSourceOff = 9
)

// TestReqSetLoadRejectsImpossibleBytes: a restored request's Kind and
// Source index per-kind and per-source tables later in the run (a Source
// >= NumSources panics in stats.Distribution.Add), so a byte outside either
// enumeration must fail the restore with ErrCorrupt. Each case edits one
// byte of a sealed payload and re-seals it with a valid checksum, so only
// the loading walk's own checks stand between the edit and the hierarchy.
func TestReqSetLoadRejectsImpossibleBytes(t *testing.T) {
	sealed := snap.Seal(snap.Meta{Workload: "memory-test"}, func(e *snap.Encoder) {
		h := slotState(t)
		s := NewReqSet()
		h.AddLiveRequests(s)
		w := snap.Saver(e)
		s.Walk(w)
		h.Walk(w, s)
	})
	meta, payload, err := snap.Open(sealed)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	resealed := func(at int, v byte) []byte {
		t.Helper()
		edited := append([]byte(nil), payload...)
		edited[at] = v
		_, back, err := snap.Open(snap.Seal(meta, func(e *snap.Encoder) {
			for _, b := range edited {
				e.U8(b)
			}
		}))
		if err != nil {
			t.Fatalf("re-sealed payload rejected by Open: %v", err)
		}
		return back
	}
	req := func(i, off int) int { return reqsOff + i*reqBytes + off }

	if _, err := loadHierarchy(resealed(req(0, reqKindOff), byte(KindData))); err != nil {
		t.Fatalf("unedited re-sealed state rejected: %v", err)
	}
	cases := []struct {
		name, want string
		at         int
		v          byte
	}{
		{"kind past KindData", "request 1 has kind 3", req(0, reqKindOff), byte(KindData + 1)},
		{"kind 255", "request 2 has kind 255", req(1, reqKindOff), 255},
		{"source NumSources", "request 1 has source 5 of 5", req(0, reqSourceOff), byte(stats.NumSources)},
		{"source 255", "request 4 has source 255", req(3, reqSourceOff), 255},
	}
	for _, tc := range cases {
		_, err := loadHierarchy(resealed(tc.at, tc.v))
		if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrCorrupt naming %q", tc.name, err, tc.want)
		}
	}
}
