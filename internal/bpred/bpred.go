// Package bpred implements the decoupled front-end's branch prediction: a
// stream predictor (Ramirez et al., "Fetching Instruction Streams") plus an
// 8-entry return address stack, as configured in Table 2 of the paper
// (1K + 6K entry stream predictor, 1-cycle latency, 8-entry RAS).
//
// A stream is a maximal run of sequential instructions ending at a taken
// control instruction. The predictor maps a stream's start address to its
// length, terminator class and next stream start, so a single prediction
// produces a whole fetch block for the FTQ/CLTQ. Two cascaded tables are
// used: a first-level table indexed by the start address only, and a larger
// second-level table indexed by the start address hashed with a global
// history of previous stream starts, which captures path-correlated streams
// (the paper's "1K+6K-entry stream predictor").
package bpred

import (
	"fmt"

	"clgp/internal/freelist"
	"clgp/internal/isa"
)

// EndClass describes how a stream terminates.
type EndClass uint8

const (
	// EndFallThrough means the stream was cut at the maximum length without
	// a taken control instruction; the next stream is sequential.
	EndFallThrough EndClass = iota
	// EndBranch means a taken conditional branch ends the stream.
	EndBranch
	// EndJump means an unconditional jump ends the stream.
	EndJump
	// EndCall means a call ends the stream (push the return address).
	EndCall
	// EndReturn means a return ends the stream (pop the return address).
	EndReturn
)

// String names the end class.
func (e EndClass) String() string {
	switch e {
	case EndFallThrough:
		return "fallthrough"
	case EndBranch:
		return "branch"
	case EndJump:
		return "jump"
	case EndCall:
		return "call"
	case EndReturn:
		return "return"
	default:
		return fmt.Sprintf("endclass(%d)", uint8(e))
	}
}

// Stream describes one dynamic instruction stream (actual or predicted).
type Stream struct {
	// Start is the address of the first instruction.
	Start isa.Addr
	// NumInsts is the stream length in instructions (>= 1).
	NumInsts int
	// Next is the start address of the following stream.
	Next isa.Addr
	// End is the terminator class.
	End EndClass
}

// EndPC returns the address of the stream's final instruction.
func (s Stream) EndPC() isa.Addr {
	if s.NumInsts <= 0 {
		return s.Start
	}
	return s.Start + isa.Addr(s.NumInsts-1)*isa.InstBytes
}

// Prediction is the predictor's answer for one stream start.
type Prediction struct {
	Stream
	// Hit reports whether any table provided the prediction (false means
	// the default sequential fallback was used).
	Hit bool
	// FromSecondLevel reports whether the path-correlated table provided it.
	FromSecondLevel bool
	// UsedRAS reports whether the next-stream address came from the RAS.
	UsedRAS bool
}

// Config sizes the predictor.
type Config struct {
	// FirstLevelEntries is the size of the PC-indexed table (paper: 1024).
	FirstLevelEntries int
	// SecondLevelEntries is the size of the history-indexed table (paper: 6144).
	SecondLevelEntries int
	// RASEntries is the return address stack depth (paper: 8).
	RASEntries int
	// MaxStreamLength caps predicted stream lengths, in instructions.
	MaxStreamLength int
	// HistoryLength is the number of previous stream starts folded into the
	// second-level index.
	HistoryLength int
}

// DefaultConfig returns the Table 2 configuration.
func DefaultConfig() Config {
	return Config{
		FirstLevelEntries:  1024,
		SecondLevelEntries: 6 * 1024,
		RASEntries:         8,
		MaxStreamLength:    64,
		HistoryLength:      4,
	}
}

func (c Config) normalise() (Config, error) {
	if c.FirstLevelEntries <= 0 || c.SecondLevelEntries <= 0 {
		return c, fmt.Errorf("bpred: table sizes must be positive (%d, %d)",
			c.FirstLevelEntries, c.SecondLevelEntries)
	}
	if c.RASEntries <= 0 {
		return c, fmt.Errorf("bpred: RAS must have at least one entry, got %d", c.RASEntries)
	}
	if c.MaxStreamLength <= 0 {
		c.MaxStreamLength = 64
	}
	if c.HistoryLength <= 0 {
		c.HistoryLength = 4
	}
	return c, nil
}

// entry is one stream table entry. The word-sized fields come first so the
// three one-byte fields share the last word: 32 bytes instead of 40.
type entry struct {
	tag      isa.Addr
	numInsts int
	next     isa.Addr
	valid    bool
	end      EndClass
	conf     uint8 // 2-bit saturating confidence
}

// RAS is the return address stack with checkpoint/restore support for
// speculative operation.
type RAS struct {
	entries []isa.Addr
	top     int // number of valid entries (stack grows upward)
}

// NewRAS creates a RAS with n entries.
func NewRAS(n int) *RAS {
	if n <= 0 {
		n = 1
	}
	return &RAS{entries: make([]isa.Addr, n)}
}

// Push records a return address, overwriting the oldest entry on overflow.
func (r *RAS) Push(addr isa.Addr) {
	if r.top == len(r.entries) {
		copy(r.entries, r.entries[1:])
		r.entries[len(r.entries)-1] = addr
		return
	}
	r.entries[r.top] = addr
	r.top++
}

// Pop returns the most recent return address; ok is false when empty (the
// caller should then fall back to a sequential guess).
func (r *RAS) Pop() (isa.Addr, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.entries[r.top], true
}

// Top returns the most recent return address without popping.
func (r *RAS) Top() (isa.Addr, bool) {
	if r.top == 0 {
		return 0, false
	}
	return r.entries[r.top-1], true
}

// Depth returns the number of valid entries.
func (r *RAS) Depth() int { return r.top }

// Snapshot captures the full RAS state for misprediction recovery.
func (r *RAS) Snapshot() RASSnapshot {
	var s RASSnapshot
	r.SaveInto(&s)
	return s
}

// SaveInto captures the RAS state into dst, reusing dst's storage when its
// capacity matches. Callers that checkpoint every prediction (the core's
// cycle loop) use this to stay allocation-free.
func (r *RAS) SaveInto(dst *RASSnapshot) {
	if len(dst.entries) != len(r.entries) {
		dst.entries = make([]isa.Addr, len(r.entries))
	}
	copy(dst.entries, r.entries)
	dst.top = r.top
}

// Restore rewinds the RAS to a previously captured snapshot.
func (r *RAS) Restore(s RASSnapshot) {
	if len(s.entries) == len(r.entries) {
		copy(r.entries, s.entries)
		r.top = s.top
	}
}

// RASSnapshot is an opaque copy of RAS state.
type RASSnapshot struct {
	entries []isa.Addr
	top     int
}

// Predictor is the cascaded stream predictor plus RAS.
type Predictor struct {
	cfg    Config
	first  []entry
	second []entry
	ras    *RAS

	// history is a fold of the last HistoryLength stream start addresses,
	// updated speculatively at prediction time.
	history uint64

	// statistics
	predictions uint64
	firstHits   uint64
	secondHits  uint64
	fallbacks   uint64
	trainings   uint64
}

// tables recycles the stream tables of released predictors.
var tables freelist.Tables[entry]

// New creates a predictor from cfg. Its stream tables come zeroed, from
// released predictors when there are any.
func New(cfg Config) (*Predictor, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	return &Predictor{
		cfg:    cfg,
		first:  tables.Get(cfg.FirstLevelEntries),
		second: tables.Get(cfg.SecondLevelEntries),
		ras:    NewRAS(cfg.RASEntries),
	}, nil
}

// Release hands the stream tables back for the next predictor to reuse and
// drops the predictor's references to them, so a later Predict or Train
// panics instead of reading another predictor's table. Releasing twice is a
// no-op. A predictor that is never released keeps its tables until the
// collector takes them.
func (p *Predictor) Release() {
	tables.Put(p.first)
	tables.Put(p.second)
	p.first, p.second = nil, nil
}

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the normalised configuration.
func (p *Predictor) Config() Config { return p.cfg }

// RASRef exposes the RAS (the fetch engine pushes/pops on calls and returns
// it observes in fetched blocks; the predictor also uses it internally for
// return-terminated streams).
func (p *Predictor) RASRef() *RAS { return p.ras }

// mix is a 64-bit multiplicative hash finaliser used for table indexing; a
// plain modulo of the PC would alias badly for the power-of-two code strides
// the workload generator produces.
func mix(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

func (p *Predictor) firstIndex(pc isa.Addr) int {
	return int(mix(uint64(pc)>>2) % uint64(len(p.first)))
}

func (p *Predictor) secondIndex(pc isa.Addr) int {
	h := mix((uint64(pc) >> 2) ^ (p.history << 1))
	return int(h % uint64(len(p.second)))
}

// pushHistory folds a new stream start into the global history.
func (p *Predictor) pushHistory(pc isa.Addr) {
	p.history = (p.history<<7 | p.history>>57) ^ (uint64(pc) >> 2)
}

// Predict returns the predicted stream starting at pc. It consults the
// second-level (history-indexed) table first, then the first-level table,
// then falls back to a sequential stream of MaxStreamLength instructions.
// Prediction speculatively updates the history and, for call/return
// terminated streams, the RAS.
func (p *Predictor) Predict(pc isa.Addr) Prediction {
	p.predictions++
	var e *entry
	fromSecond := false

	if se := &p.second[p.secondIndex(pc)]; se.valid && se.tag == pc && se.conf >= 2 {
		e = se
		fromSecond = true
	} else if fe := &p.first[p.firstIndex(pc)]; fe.valid && fe.tag == pc {
		e = fe
	}

	pred := Prediction{}
	if e == nil {
		// Fallback: a sequential run cut at the maximum length.
		p.fallbacks++
		pred.Stream = Stream{
			Start:    pc,
			NumInsts: p.cfg.MaxStreamLength,
			Next:     pc + isa.Addr(p.cfg.MaxStreamLength)*isa.InstBytes,
			End:      EndFallThrough,
		}
	} else {
		if fromSecond {
			p.secondHits++
		} else {
			p.firstHits++
		}
		pred.Hit = true
		pred.FromSecondLevel = fromSecond
		pred.Stream = Stream{Start: pc, NumInsts: e.numInsts, Next: e.next, End: e.end}
	}

	// RAS interaction.
	switch pred.End {
	case EndCall:
		p.ras.Push(pred.EndPC() + isa.InstBytes)
	case EndReturn:
		if addr, ok := p.ras.Pop(); ok {
			pred.Next = addr
			pred.UsedRAS = true
		}
	}

	p.pushHistory(pc)
	return pred
}

// Train records the actual stream observed by the front-end (at branch
// resolution or commit). Both tables are updated: the first level always,
// the second level with hysteresis via the 2-bit confidence counter.
func (p *Predictor) Train(actual Stream) {
	if actual.NumInsts <= 0 {
		return
	}
	if actual.NumInsts > p.cfg.MaxStreamLength {
		actual.NumInsts = p.cfg.MaxStreamLength
		actual.Next = actual.Start + isa.Addr(actual.NumInsts)*isa.InstBytes
		actual.End = EndFallThrough
	}
	p.trainings++

	update := func(e *entry) {
		matches := e.valid && e.tag == actual.Start &&
			e.numInsts == actual.NumInsts && e.next == actual.Next && e.end == actual.End
		switch {
		case matches:
			if e.conf < 3 {
				e.conf++
			}
		case e.valid && e.tag == actual.Start:
			// Same stream start, different behaviour: lose confidence, and
			// replace the prediction once confidence is exhausted.
			if e.conf > 0 {
				e.conf--
			} else {
				e.numInsts = actual.NumInsts
				e.next = actual.Next
				e.end = actual.End
			}
		default:
			*e = entry{valid: true, tag: actual.Start, numInsts: actual.NumInsts,
				next: actual.Next, end: actual.End, conf: 1}
		}
	}
	update(&p.first[p.firstIndex(actual.Start)])
	update(&p.second[p.secondIndex(actual.Start)])
}

// RecoverHistory restores the global history after a misprediction, given
// the snapshot returned by HistorySnapshot at prediction time.
func (p *Predictor) RecoverHistory(h uint64) { p.history = h }

// HistorySnapshot returns the current speculative history value.
func (p *Predictor) HistorySnapshot() uint64 { return p.history }

// Stats returns the predictor's internal counters: total predictions, hits
// in each table, and fallback (no-hit) predictions.
func (p *Predictor) Stats() (predictions, firstHits, secondHits, fallbacks uint64) {
	return p.predictions, p.firstHits, p.secondHits, p.fallbacks
}

// StorageEntries returns the total number of table entries (the "1K+6K"
// budget of Table 2).
func (p *Predictor) StorageEntries() int { return len(p.first) + len(p.second) }
