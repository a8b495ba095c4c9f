package prefetch

import (
	"clgp/internal/ftq"
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/prebuffer"
	"clgp/internal/stats"
)

// CLGPEngine implements Cache Line Guided Prestaging, the paper's proposal.
// Fetch blocks are split into fetch cache lines in the CLTQ; the CLGP
// algorithm walks the CLTQ without any filtering and, for every line,
// either bumps the consumers counter of the prestage buffer entry already
// holding it or allocates a replaceable entry (consumers == 0, LRU) and
// issues the real prefetch. At the fetch stage the prestage buffer is the
// primary instruction supplier: hits decrement the consumers counter and the
// line is NOT moved into the cache hierarchy, so the L1 (or L0) acts only as
// an emergency cache filled by demand misses after mispredictions.
type CLGPEngine struct {
	common
	q   *ftq.CLTQ
	buf *prebuffer.PrestageBuffer
}

// NewCLGP creates a CLGP engine bound to the memory hierarchy.
func NewCLGP(cfg Config, mem *memory.Hierarchy) (*CLGPEngine, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	q, err := ftq.NewCLTQ(cfg.QueueBlocks, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	buf, err := prebuffer.NewPrestageBuffer(cfg.BufferEntries, cfg.BufferLatency)
	if err != nil {
		return nil, err
	}
	return &CLGPEngine{common: common{cfg: cfg, mem: mem, pb: &buf.Buffer}, q: q, buf: buf}, nil
}

// Name implements Engine.
func (e *CLGPEngine) Name() string { return "clgp" }

// Buffer exposes the prestage buffer (tests, invariants).
func (e *CLGPEngine) Buffer() *prebuffer.PrestageBuffer { return e.buf }

// Queue exposes the CLTQ (tests).
func (e *CLGPEngine) Queue() *ftq.CLTQ { return e.q }

// EnqueueBlock implements Engine.
func (e *CLGPEngine) EnqueueBlock(fb ftq.FetchBlock) bool { return e.q.Push(fb) }

// QueueFull implements Engine.
func (e *CLGPEngine) QueueFull() bool { return e.q.Full() }

// QueueEmpty implements Engine.
func (e *CLGPEngine) QueueEmpty() bool { return e.q.Empty() }

// BlocksQueued implements Engine.
func (e *CLGPEngine) BlocksQueued() int { return e.q.Blocks() }

// NextFetch implements Engine.
func (e *CLGPEngine) NextFetch() (FetchRequest, bool) {
	entry, ok := e.q.Head()
	if !ok {
		return FetchRequest{}, false
	}
	return FetchRequest{
		Line:         entry.Line,
		Start:        entry.Start,
		NumInsts:     entry.NumInsts,
		Next:         entry.Next,
		LastOfBlock:  entry.LastOfBlock,
		EndsInBranch: entry.EndsInBranch,
		WrongPath:    entry.WrongPath,
		BlockID:      entry.BlockID,
	}, true
}

// PopFetch implements Engine.
func (e *CLGPEngine) PopFetch() { e.q.Pop() }

// LookupBuffer implements Engine: a hit decrements the line's consumers
// counter and leaves the line resident (no transfer to the caches).
func (e *CLGPEngine) LookupBuffer(line isa.Addr, now uint64) (bool, int) {
	return e.buf.Lookup(line), e.cfg.BufferLatency
}

// Tick implements Engine: walk the CLTQ for unprefetched entries (no
// filtering), update prestage buffer lifetimes or issue prefetches, and
// complete outstanding fills.
func (e *CLGPEngine) Tick(now uint64) {
	// Cancelled prefetches must drop their pending prestage entry: leaving
	// it allocated would make later Requests for the line report it as
	// already staged and never re-issue the prefetch.
	e.completeFills(now, e.buf.Fill, e.buf.Invalidate)

	processed := 0
	for processed < maxPerCycle {
		idx := e.q.NextUnprefetched()
		if idx < 0 {
			break
		}
		entry, _ := e.q.At(idx)
		alreadyIn, allocated := e.buf.Request(entry.Line)
		switch {
		case alreadyIn:
			// The line is already staged (or in flight): no new prefetch,
			// its lifetime was just extended.
			e.recordSource(stats.SrcPreBuffer)
			e.q.MarkPrefetched(idx)
		case allocated:
			e.issuePrefetch(entry.Line, now)
			e.q.MarkPrefetched(idx)
		default:
			// No replaceable prestage entry: every entry still has pending
			// consumers. Retry next cycle.
			return
		}
		processed++
	}
}

// NextEvent implements Engine. The oldest unprefetched CLTQ entry is
// same-cycle work exactly when Tick can process it: its line is already
// staged (the consumers counter bumps) or a replaceable prestage entry
// exists to claim. When every entry is pinned by pending consumers, Tick is
// a no-op until a fetch-stage hit releases a reference or a resolution flush
// resets the counters — both covered by the core's fetch and back-end
// horizons — leaving the earliest in-flight fill as the engine's own event.
func (e *CLGPEngine) NextEvent(now uint64) uint64 {
	if idx := e.q.NextUnprefetched(); idx >= 0 {
		entry, _ := e.q.At(idx)
		if e.buf.Contains(entry.Line) || e.buf.ReplaceableSlots() > 0 {
			return now
		}
	}
	return e.nextFillEvent(now)
}

// Flush implements Engine: on a misprediction the CLTQ is flushed and the
// consumers counters are reset, making every prestage entry available for
// prefetches along the new path; valid lines remain usable until they are
// overwritten (Section 3.2.3).
func (e *CLGPEngine) Flush() {
	e.q.Flush()
	e.buf.ResetConsumers()
}
