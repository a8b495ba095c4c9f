package prefetch

import (
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/prebuffer"
	"clgp/internal/stats"
)

// filterEngine is the machinery FDP and NextN share: candidate lines are
// probed against the caches (Enqueue Cache Probe Filtering), the survivors
// are prefetched into a prefetch buffer, and a fetch-stage hit transfers the
// line to the L0 (or the L1 when there is no L0) and frees its entry. The two
// engines differ only in where candidates come from: FDP overrides
// EnqueueBlock and NextN PopFetch.
type filterEngine struct {
	common
	blockCursor
	name string
	buf  *prebuffer.PrefetchBuffer

	// candidates is the prefetch instruction queue: line addresses waiting
	// to be filtered and issued.
	candidates candRing

	// l0Source is the prefetch source a candidate filtered out by the L0
	// probe is counted as.
	l0Source stats.Source
}

func newFilterEngine(name string, l0Source stats.Source, cfg Config, mem *memory.Hierarchy) (filterEngine, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return filterEngine{}, err
	}
	bc, err := newBlockCursor(cfg)
	if err != nil {
		return filterEngine{}, err
	}
	buf, err := prebuffer.NewPrefetchBuffer(cfg.BufferEntries, cfg.BufferLatency)
	if err != nil {
		return filterEngine{}, err
	}
	return filterEngine{
		common:      common{cfg: cfg, mem: mem, pb: &buf.Buffer},
		blockCursor: bc,
		name:        name,
		buf:         buf,
		l0Source:    l0Source,
	}, nil
}

// Name implements Engine.
func (e *filterEngine) Name() string { return e.name }

// Buffer exposes the prefetch buffer (tests, fetch-source accounting).
func (e *filterEngine) Buffer() *prebuffer.PrefetchBuffer { return e.buf }

// LookupBuffer implements Engine. On a hit the line is transferred to the L0
// cache (or to the L1 when no L0 is configured) and the buffer entry becomes
// available.
func (e *filterEngine) LookupBuffer(line isa.Addr, now uint64) (bool, int) {
	hit := e.buf.Lookup(line)
	if hit {
		if e.cfg.HasL0 {
			e.mem.InsertL0(line)
		} else {
			e.mem.InsertL1I(line)
		}
		e.buf.Invalidate(line)
	}
	return hit, e.cfg.BufferLatency
}

// filterSource reports whether a candidate line is filtered out (already
// resident in a cache or the buffer) and the prefetch source it counts as.
func (e *filterEngine) filterSource(line isa.Addr) (stats.Source, bool) {
	switch {
	case e.cfg.HasL0 && e.mem.L0() != nil && e.mem.L0().Probe(line):
		return e.l0Source, true
	case e.mem.L1I().Probe(line):
		return stats.SrcL1, true
	case e.buf.Contains(line):
		// Already prefetched (resident or in flight): nothing to do.
		return stats.SrcPreBuffer, true
	}
	return 0, false
}

// Tick implements Engine: filter and issue prefetch candidates, and complete
// outstanding fills.
func (e *filterEngine) Tick(now uint64) {
	// Cancelled prefetches must free their pending buffer entry, or the
	// buffer would slowly fill with dead allocations after flushes.
	e.completeFills(now, e.buf.Fill, e.buf.Invalidate)

	for processed := 0; e.candidates.n > 0 && processed < maxPerCycle; processed++ {
		line := e.candidates.peek()
		if src, filtered := e.filterSource(line); filtered {
			e.recordSource(src)
		} else if e.buf.Allocate(line) {
			e.issuePrefetch(line, now)
		} else {
			// No free prefetch buffer entry: stall the candidate queue
			// (entries free up when fetch consumes lines).
			return
		}
		e.candidates.pop()
	}
}

// NextEvent implements Engine. The queued head is same-cycle work exactly
// when Tick can make progress on it: it is filtered out or a buffer slot is
// free to allocate. A head blocked on a full buffer leaves Tick a no-op
// until a fetch-stage hit frees an entry or a resolution flush clears the
// queue — both covered by the core's fetch and back-end horizons — so the
// engine's own event is then only the earliest in-flight fill.
func (e *filterEngine) NextEvent(now uint64) uint64 {
	if e.candidates.n > 0 {
		if _, filtered := e.filterSource(e.candidates.peek()); filtered || e.buf.FreeSlots() > 0 {
			return now
		}
	}
	return e.nextFillEvent(now)
}

// Flush implements Engine: the FTQ and the candidate queue are cleared. The
// prefetch buffer keeps its contents (lines from the wrong path may still
// turn out useful, exactly as in the paper's description of FDP).
func (e *filterEngine) Flush() {
	e.flush()
	e.candidates.reset()
}
