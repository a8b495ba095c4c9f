package ftq

import (
	"reflect"
	"testing"

	"clgp/internal/isa"
	"clgp/internal/snap"
)

// walker is what both queues save and load.
type walker interface{ Walk(*snap.Walker) }

// roundTrip saves q and loads it into r, failing the test on any error.
func roundTrip(t *testing.T, q, r walker) {
	t.Helper()
	var e snap.Encoder
	q.Walk(snap.Saver(&e))
	d := snap.NewDecoder(e.Bytes())
	r.Walk(snap.Loader(d))
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("load: %v, %d trailing bytes", err, d.Remaining())
	}
}

// cltqState is a CLTQ's logical state: its entries from the head, and the
// counters over them.
type cltqState struct {
	entries              []CLTQEntry
	blockCount, scanHint int
}

func stateOf(q *CLTQ) cltqState {
	s := cltqState{blockCount: q.blockCount, scanHint: q.scanHint}
	for i := 0; i < q.n; i++ {
		s.entries = append(s.entries, *q.at(i))
	}
	return s
}

// TestCLTQSnapshotRoundTrip saves a full CLTQ whose ring head has moved and
// whose head entries are prefetched, and loads it into a fresh queue: the
// restored queue must hold
// the same entries and block count, find the same first unprefetched entry
// (after which its rebuilt scan hint equals the saved one), and then push
// and pop exactly as the saved queue does.
func TestCLTQSnapshotRoundTrip(t *testing.T) {
	q, _ := NewCLTQ(4, 64)
	// Each block spans two lines.
	for i := uint64(1); i <= 4; i++ {
		q.Push(FetchBlock{Start: 0x1000*isa.Addr(i) + 0x20, NumInsts: 16, SeqID: i})
	}
	for i := 0; i < 3; i++ {
		q.Pop() // all of block 1 and the first line of block 2
	}
	q.Push(FetchBlock{Start: 0x5020, NumInsts: 16, Next: 0x6000, EndsInBranch: true, WrongPath: true, SeqID: 5})
	for i := 0; i < 3; i++ {
		q.MarkPrefetched(i)
	}
	if q.NextUnprefetched() != 3 || q.scanHint != 3 {
		t.Fatalf("saved queue's first unprefetched entry is %d, want 3", q.NextUnprefetched())
	}
	r, _ := NewCLTQ(4, 64)
	roundTrip(t, q, r)
	if got, want := stateOf(r), stateOf(q); !reflect.DeepEqual(got.entries, want.entries) || got.blockCount != want.blockCount {
		t.Fatalf("restored queue holds %d blocks in %+v, saved one %d blocks in %+v",
			got.blockCount, got.entries, want.blockCount, want.entries)
	}
	if got, want := r.NextUnprefetched(), q.NextUnprefetched(); got != want {
		t.Fatalf("restored queue's first unprefetched entry is %d, saved one's %d", got, want)
	}
	if got, want := stateOf(r), stateOf(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored queue's state %+v, saved one's %+v", got, want)
	}
	for i := uint64(6); i < 12; i++ {
		fb := FetchBlock{Start: 0x8000 + 0x100*isa.Addr(i), NumInsts: int(i), SeqID: i}
		if a, b := q.Push(fb), r.Push(fb); a != b {
			t.Fatalf("block %d: saved queue pushed %v, restored one %v", i, a, b)
		}
		a, _ := q.Pop()
		b, _ := r.Pop()
		if a != b || !reflect.DeepEqual(stateOf(r), stateOf(q)) {
			t.Fatalf("block %d: the queues diverged after a restore", i)
		}
	}
}

// TestFTQSnapshotRoundTrip saves an FTQ whose ring has wrapped and loads it into a fresh
// queue of the same capacity: the restored queue must hold the same blocks
// in the same order.
func TestFTQSnapshotRoundTrip(t *testing.T) {
	q, _ := NewFTQ(4)
	for i := uint64(1); i <= 6; i++ {
		q.Push(FetchBlock{Start: 0x1000 * isa.Addr(i), NumInsts: int(i), Next: 0x1000 * isa.Addr(i+1), SeqID: i})
		if i%2 == 0 {
			q.Pop()
		}
	}
	r, _ := NewFTQ(4)
	roundTrip(t, q, r)
	if r.Len() != q.Len() {
		t.Fatalf("restored queue holds %d blocks, saved one %d", r.Len(), q.Len())
	}
	for i := 0; i < q.Len(); i++ {
		a, _ := q.At(i)
		b, _ := r.At(i)
		if a != b {
			t.Errorf("block %d restored as %+v, saved as %+v", i, b, a)
		}
	}
}
