package memory

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"clgp/internal/isa"
	"clgp/internal/snap"
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
	s.Save(&e)
	h.SaveState(&e, s)
	return e.Bytes()
}

// loadHierarchy restores data into a fresh hierarchy of the test config.
func loadHierarchy(data []byte) (*Hierarchy, error) {
	h := MustNew(testConfig(4<<10, false))
	d := snap.NewDecoder(data)
	s := NewReqSet()
	s.Load(d)
	h.LoadState(d, s)
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
