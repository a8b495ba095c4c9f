package trace

import (
	"testing"

	"clgp/internal/isa"
)

func mkRecord(pc uint64, taken bool, target, eff uint64) Record {
	return Record{PC: isa.Addr(pc), Taken: taken, Target: isa.Addr(target), EffAddr: isa.Addr(eff)}
}

func TestMemTraceIteration(t *testing.T) {
	recs := []Record{
		mkRecord(0x1000, false, 0x1004, 0),
		mkRecord(0x1004, true, 0x2000, 0),
		mkRecord(0x2000, false, 0x2004, 0x8000),
	}
	mt := NewMemTrace(recs)
	if mt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", mt.Len())
	}
	if mt.At(1).Target != 0x2000 {
		t.Errorf("At(1) = %+v", mt.At(1))
	}
	if mt.At(2).EffAddr != 0x8000 {
		t.Errorf("At(2) = %+v", mt.At(2))
	}
}

func TestMemTraceAppendAndSlice(t *testing.T) {
	mt := NewMemTrace(nil)
	for i := 0; i < 10; i++ {
		mt.Append(mkRecord(uint64(0x1000+4*i), false, uint64(0x1004+4*i), 0))
	}
	if mt.Len() != 10 {
		t.Fatalf("Len = %d", mt.Len())
	}
	sl, err := mt.Slice(2, 5)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if sl.Len() != 3 || sl.At(0).PC != 0x1008 {
		t.Errorf("slice = %+v", sl.Records())
	}
	if _, err := mt.Slice(-1, 3); err == nil {
		t.Errorf("negative lo should error")
	}
	if _, err := mt.Slice(3, 11); err == nil {
		t.Errorf("hi beyond end should error")
	}
	if _, err := mt.Slice(5, 2); err == nil {
		t.Errorf("lo > hi should error")
	}
}

func TestProfileAndRepresentativeSlice(t *testing.T) {
	// Build a trace with two phases: phase A loops over PCs 0x1000..0x10ff,
	// phase B loops over 0x9000..0x90ff. The representative slice of the
	// combined trace should come from the longer phase.
	var recs []Record
	addLoop := func(base uint64, iters int) {
		for it := 0; it < iters; it++ {
			for i := 0; i < 16; i++ {
				pc := base + uint64(i*4)
				r := Record{PC: isa.Addr(pc), Target: isa.Addr(pc + 4)}
				if i == 15 {
					r.Taken = true
					r.Target = isa.Addr(base)
				}
				recs = append(recs, r)
			}
		}
	}
	addLoop(0x1000, 100) // 1600 records of phase A
	addLoop(0x9000, 20)  // 320 records of phase B
	mt := NewMemTrace(recs)

	profiles, err := Profile(mt, 160)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if len(profiles) < 10 {
		t.Fatalf("expected >= 10 intervals, got %d", len(profiles))
	}
	if _, err := Profile(mt, 0); err == nil {
		t.Errorf("zero interval length should error")
	}

	sl, idx, err := RepresentativeSlice(mt, 160)
	if err != nil {
		t.Fatalf("RepresentativeSlice: %v", err)
	}
	if sl.Len() == 0 {
		t.Fatalf("empty representative slice")
	}
	// Phase A dominates, so the representative interval must be a phase-A
	// interval (index < 10).
	if idx >= 10 {
		t.Errorf("representative interval %d comes from the minority phase", idx)
	}
	if sl.At(0).PC < 0x1000 || sl.At(0).PC >= 0x2000 {
		t.Errorf("representative slice starts at %#x, expected phase A", sl.At(0).PC)
	}
}

func TestRepresentativeSliceEdgeCases(t *testing.T) {
	empty := NewMemTrace(nil)
	if _, _, err := RepresentativeSlice(empty, 100); err == nil {
		t.Errorf("empty trace should error")
	}
	// Single interval: trace shorter than the interval length.
	small := NewMemTrace([]Record{
		mkRecord(0x100, false, 0x104, 0),
		mkRecord(0x104, false, 0x108, 0),
	})
	sl, idx, err := RepresentativeSlice(small, 100)
	if err != nil || idx != 0 || sl.Len() != 2 {
		t.Errorf("single-interval slice = len %d idx %d err %v", sl.Len(), idx, err)
	}
}
