package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"clgp/internal/isa"
)

// appendAll returns a trace holding recs, appended one by one, or the first
// Append error.
func appendAll(recs []Record) (*MemTrace, error) {
	t := &MemTrace{}
	for _, r := range recs {
		if err := t.Append(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func mkRecord(pc uint64, taken bool, target, eff uint64) Record {
	return Record{PC: isa.Addr(pc), Taken: taken, Target: isa.Addr(target), EffAddr: isa.Addr(eff)}
}

func TestMemTraceIteration(t *testing.T) {
	recs := []Record{
		mkRecord(0x1000, false, 0x1004, 0),
		mkRecord(0x1004, true, 0x2000, 0),
		mkRecord(0x2000, false, 0x2004, 0x8000),
	}
	mt, err := appendAll(recs)
	if err != nil {
		t.Fatalf("appendAll: %v", err)
	}
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

func TestMemTraceAppend(t *testing.T) {
	var mt MemTrace
	var recs []Record
	for i := 0; i < 10; i++ {
		r := mkRecord(uint64(0x1000+4*i), i%3 == 0, uint64(0x1004+4*i), uint64(0x8000+8*i))
		if err := mt.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		recs = append(recs, r)
	}
	if mt.Len() != 10 {
		t.Fatalf("Len = %d", mt.Len())
	}
	for i, want := range recs {
		if got := mt.At(i); got != want {
			t.Errorf("At(%d) = %+v, want %+v", i, got, want)
		}
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
	// The trace is continuous: phase A's last back-edge leaves for phase B.
	recs[len(recs)-1].Target = 0x9000
	addLoop(0x9000, 20) // 320 records of phase B
	// Short reads exercise the profile's refill path.
	src := &sliceSource{recs: recs, batch: 37}

	profiles, err := Profile(src, 160)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if len(profiles) < 10 {
		t.Fatalf("expected >= 10 intervals, got %d", len(profiles))
	}
	if _, err := Profile(src, 0); err == nil {
		t.Errorf("zero interval length should error")
	}

	iv, idx, err := RepresentativeSlice(src, 160)
	if err != nil {
		t.Fatalf("RepresentativeSlice: %v", err)
	}
	if iv.Start != profiles[idx].Start || iv.End != profiles[idx].End {
		t.Errorf("interval %d is [%d,%d), its profile says [%d,%d)", idx, iv.Start, iv.End, profiles[idx].Start, profiles[idx].End)
	}
	if iv.End-iv.Start != 160 {
		t.Fatalf("representative interval [%d,%d) is not 160 records", iv.Start, iv.End)
	}
	// Phase A dominates, so the representative interval must be a phase-A
	// interval (index < 10).
	if idx >= 10 {
		t.Errorf("representative interval %d comes from the minority phase", idx)
	}
	if pc := recs[iv.Start].PC; pc < 0x1000 || pc >= 0x2000 {
		t.Errorf("representative slice starts at %#x, expected phase A", pc)
	}
}

func TestRepresentativeSliceEdgeCases(t *testing.T) {
	if _, _, err := RepresentativeSlice(&sliceSource{}, 100); err == nil {
		t.Errorf("empty trace should error")
	}
	// Single interval: trace shorter than the interval length.
	small := &sliceSource{recs: []Record{
		mkRecord(0x100, false, 0x104, 0),
		mkRecord(0x104, false, 0x108, 0),
	}}
	iv, idx, err := RepresentativeSlice(small, 100)
	if err != nil || idx != 0 || iv.Start != 0 || iv.End != 2 {
		t.Errorf("single-interval slice = [%d,%d) idx %d err %v", iv.Start, iv.End, idx, err)
	}
	// A broken record fails the profile, named by its index.
	for _, bad := range []Record{mkRecord(0x10c, false, 0x110, 0), mkRecord(0x10a, false, 0x10e, 0)} {
		broken := &sliceSource{recs: []Record{small.recs[0], small.recs[1], bad}}
		if _, _, err := RepresentativeSlice(broken, 2); err == nil || !strings.Contains(err.Error(), "record 2:") {
			t.Errorf("record 2 at PC %#x: RepresentativeSlice error %v", bad.PC, err)
		}
	}
}

// TestMemTraceEntryIs8Bytes pins the packed layout: a quarter of the
// 32-byte Record is the point of MemTrace's representation.
func TestMemTraceEntryIs8Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 8 {
		t.Errorf("MemTrace entry is %d bytes, want 8", n)
	}
}

// fuzzRecords decodes a continuous, aligned record sequence from data. Each
// record takes one control byte: bit 0 is Taken, bit 1 reads an 8-byte jump
// target (aligned down to InstBytes), bit 2 reads an 8-byte effective
// address. Without bit 1 the record falls through to PC+InstBytes, so Taken
// also lands on sequential targets. Missing trailing bytes read as zero.
func fuzzRecords(start uint64, data []byte) []Record {
	word := func() isa.Addr {
		var b [8]byte
		n := copy(b[:], data)
		data = data[n:]
		return isa.Addr(binary.LittleEndian.Uint64(b[:]))
	}
	pc := isa.Addr(start) &^ (isa.InstBytes - 1)
	var recs []Record
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		r := Record{PC: pc, Taken: c&1 != 0, Target: pc + isa.InstBytes}
		if c&2 != 0 {
			r.Target = word() &^ (isa.InstBytes - 1)
		}
		if c&4 != 0 {
			r.EffAddr = word()
		}
		recs = append(recs, r)
		pc = r.Target
	}
	return recs
}

// FuzzMemTraceRoundTrip: the first record with a PC, Target or EffAddr
// wider than 32 bits is rejected at its index; every continuous, aligned
// record sequence of 32-bit addresses (the prefix before it) reads back
// exactly; and one broken
// record (an odd PC, or a PC that does not continue the previous target) is
// rejected at its index. The seed corpus is in
// testdata/fuzz/FuzzMemTraceRoundTrip.
func FuzzMemTraceRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, start uint64, data []byte, mut uint16) {
		recs := fuzzRecords(start, data)
		if w := slices.IndexFunc(recs, func(r Record) bool {
			return r.PC|r.Target|r.EffAddr > math.MaxUint32
		}); w >= 0 {
			if _, err := appendAll(recs); !errors.Is(err, ErrWideAddr) || !strings.Contains(err.Error(), fmt.Sprintf("record %d:", w)) {
				t.Fatalf("record %d has a wide address %+v: Append error %v", w, recs[w], err)
			}
			recs = recs[:w]
		}
		mt, err := appendAll(recs)
		if err != nil {
			t.Fatalf("valid trace rejected: %v", err)
		}
		if mt.Len() != len(recs) {
			t.Fatalf("Len = %d, want %d", mt.Len(), len(recs))
		}
		for i, want := range recs {
			if got := mt.At(i); got != want {
				t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
			}
		}
		if len(recs) == 0 {
			return
		}

		m := int(mut>>1) % len(recs)
		bad := append([]Record(nil), recs...)
		if mut&1 != 0 || m == 0 {
			bad[m].PC |= 1
		} else {
			bad[m].PC = recs[m-1].Target + isa.InstBytes
		}
		if _, err := appendAll(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d:", m)) {
			t.Fatalf("record %d mutated to PC %#x: Append error %v", m, bad[m].PC, err)
		}
		var at MemTrace
		for i, r := range bad[:m+1] {
			if err := at.Append(r); (err != nil) != (i == m) {
				t.Fatalf("Append(%d) with record %d mutated: %v", i, m, err)
			}
		}
		if at.Len() != m {
			t.Fatalf("rejected Append left Len %d, want %d", at.Len(), m)
		}
	})
}
