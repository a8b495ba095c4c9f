// Package trace defines the dynamic instruction trace consumed by the
// simulator: the committed (correct-path) execution of a workload. The
// paper drives its simulator with 300M-instruction SimPoint slices of
// SPECint2000 traces; here traces are produced by the synthetic workload
// generator, but the record type, the in-memory and windowed trace sources
// and the SimPoint analysis are workload-agnostic so externally captured
// traces could be used as well. The on-disk container format lives in
// package tracefile.
//
// A committed trace is continuous: every record's Target is the next
// record's PC. MemTrace relies on that, and on every address fitting in 32
// bits, to hold a record in 8 bytes instead of Record's 32. It stores
// {PC | taken, EffAddr} per record as two 32-bit words, with Taken in the
// low bit of the InstBytes-aligned PC, plus the last record's Target;
// record i's Target is read back as record i+1's PC. A 300M-record slice
// therefore takes 2.4 GB in memory. Appending a misaligned PC, a PC that is
// not the previous record's Target, or an address wider than 32 bits is an
// error. Records themselves, trace containers and WindowTrace keep 64-bit
// addresses.
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"clgp/internal/isa"
)

// Record is one dynamic (committed) instruction instance.
type Record struct {
	// PC is the instruction address.
	PC isa.Addr
	// Taken is the actual direction of a conditional branch; for
	// unconditional control it is true, for other classes it is false.
	Taken bool
	// Target is the actual next PC after this instruction (the dynamic
	// successor on the correct path).
	Target isa.Addr
	// EffAddr is the effective data address for loads and stores, zero
	// otherwise.
	EffAddr isa.Addr
}

// takenBit holds Record.Taken in an entry's PC word; InstBytes alignment
// keeps the bit clear in every valid PC.
const takenBit uint32 = 1

// The packing needs at least one alignment bit below the PC.
var _ [isa.InstBytes - 2]struct{}

// ErrWideAddr is wrapped by the error Append returns for a record whose PC,
// Target or EffAddr does not fit in the in-memory trace's 32-bit words.
var ErrWideAddr = errors.New("address beyond the in-memory trace's 32 bits")

// entry is the packed form of one record: its Target is the next entry's
// PC (or MemTrace.end for the last record).
type entry struct {
	pc  uint32 // PC | takenBit
	eff uint32
}

// MemTrace is an in-memory continuous trace of 32-bit addresses, 8 bytes
// per record. The zero value is an empty trace ready for Append.
type MemTrace struct {
	ents []entry
	end  uint32 // Target of the last record
}

// NewMemTrace creates a trace holding a copy of recs, which must be a
// continuous, aligned record sequence (see Append).
func NewMemTrace(recs []Record) (*MemTrace, error) {
	t := &MemTrace{}
	t.Grow(len(recs))
	for _, r := range recs {
		if err := t.Append(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Grow makes room for n more records, so the next n Appends do not
// reallocate.
func (t *MemTrace) Grow(n int) { t.ents = slices.Grow(t.ents, n) }

// Append adds a record to the end of the trace. It rejects a PC that is not
// InstBytes-aligned or, after the first record, not equal to the previous
// record's Target, and a PC, Target or EffAddr wider than 32 bits (wrapping
// ErrWideAddr); the error names the record's index.
func (t *MemTrace) Append(r Record) error {
	i := len(t.ents)
	if err := checkContinuity(i, r.PC, isa.Addr(t.end)); err != nil {
		return err
	}
	if r.PC|r.Target|r.EffAddr > math.MaxUint32 {
		return wideAddrError(i, r)
	}
	e := entry{pc: uint32(r.PC), eff: uint32(r.EffAddr)}
	if r.Taken {
		e.pc |= takenBit
	}
	t.ents = append(t.ents, e)
	t.end = uint32(r.Target)
	return nil
}

// wideAddrError names the first of record i's addresses that needs more
// than 32 bits.
func wideAddrError(i int, r Record) error {
	name, v := "EffAddr", r.EffAddr
	if r.PC > math.MaxUint32 {
		name, v = "PC", r.PC
	} else if r.Target > math.MaxUint32 {
		name, v = "Target", r.Target
	}
	return fmt.Errorf("trace: record %d: %s %#x: %w", i, name, uint64(v), ErrWideAddr)
}

// checkContinuity reports a record i whose pc is not InstBytes-aligned or,
// for i > 0, is not prevTarget, the previous record's Target.
func checkContinuity(i int, pc, prevTarget isa.Addr) error {
	if pc&(isa.InstBytes-1) != 0 {
		return fmt.Errorf("trace: record %d: PC %#x is not %d-byte aligned", i, uint64(pc), isa.InstBytes)
	}
	if i > 0 && pc != prevTarget {
		return fmt.Errorf("trace: record %d: PC %#x does not continue the previous target %#x", i, uint64(pc), uint64(prevTarget))
	}
	return nil
}

// Len returns the number of records.
func (t *MemTrace) Len() int { return len(t.ents) }

// Advance is the window-advance hook of the engine's trace-source contract
// (core.TraceSource): records below frontier will never be read again. An
// in-memory trace keeps everything resident, so it is a no-op.
func (t *MemTrace) Advance(frontier int) {}

// At returns record i.
func (t *MemTrace) At(i int) Record {
	e := t.ents[i]
	return Record{PC: isa.Addr(e.pc &^ takenBit), Taken: e.pc&takenBit != 0,
		Target: isa.Addr(t.target(i)), EffAddr: isa.Addr(e.eff)}
}

// target returns record i's Target: the next record's PC, or end for the
// last record.
func (t *MemTrace) target(i int) uint32 {
	if i+1 < len(t.ents) {
		return t.ents[i+1].pc &^ takenBit
	}
	return t.end
}
