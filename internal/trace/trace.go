// Package trace defines the dynamic instruction trace consumed by the
// simulator: the committed (correct-path) execution of a workload. The
// paper drives its simulator with 300M-instruction SimPoint slices of
// SPECint2000 traces; here traces are produced by the synthetic workload
// generator, but the record type, the in-memory and windowed trace sources
// and the slicing utilities are workload-agnostic so externally captured
// traces could be used as well. The on-disk container format lives in
// package tracefile.
package trace

import (
	"fmt"

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

// MemTrace is an in-memory trace.
type MemTrace struct {
	recs []Record
}

// NewMemTrace creates a trace over recs; the slice is not copied.
func NewMemTrace(recs []Record) *MemTrace { return &MemTrace{recs: recs} }

// Append adds a record to the end of the trace.
func (t *MemTrace) Append(r Record) { t.recs = append(t.recs, r) }

// Len returns the number of records.
func (t *MemTrace) Len() int { return len(t.recs) }

// Advance is the window-advance hook of the engine's trace-source contract
// (core.TraceSource): records below frontier will never be read again. An
// in-memory trace keeps everything resident, so it is a no-op.
func (t *MemTrace) Advance(frontier int) {}

// Records returns the underlying record slice (not a copy).
func (t *MemTrace) Records() []Record { return t.recs }

// At returns record i.
func (t *MemTrace) At(i int) Record { return t.recs[i] }

// Slice returns a new MemTrace covering records [lo, hi); it shares the
// underlying storage.
func (t *MemTrace) Slice(lo, hi int) (*MemTrace, error) {
	if lo < 0 || hi > len(t.recs) || lo > hi {
		return nil, fmt.Errorf("trace: slice [%d,%d) out of range 0..%d", lo, hi, len(t.recs))
	}
	return &MemTrace{recs: t.recs[lo:hi]}, nil
}
