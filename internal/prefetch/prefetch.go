// Package prefetch implements the instruction-delivery engines the paper
// evaluates, behind a single Engine interface consumed by the core's fetch
// stage:
//
//   - None: the decoupled baseline without prefetching.
//   - NextN: classic next-N-line sequential prefetching (related work, used
//     as an ablation).
//   - FDP: Fetch Directed Prefetching with Enqueue Cache Probe Filtering, a
//     fetch target queue (FTQ) and a prefetch buffer whose entries are freed
//     on first use (the line is transferred to the L0/L1).
//   - CLGP: Cache Line Guided Prestaging, the paper's contribution: a cache
//     line target queue (CLTQ), no filtering, and a prestage buffer whose
//     entries carry a consumers counter and are never transferred to the
//     cache hierarchy.
package prefetch

import (
	"fmt"

	"clgp/internal/clock"
	"clgp/internal/ftq"
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/prebuffer"
	"clgp/internal/snap"
	"clgp/internal/stats"
)

// FetchRequest is one cache line's worth of fetch work handed to the fetch
// stage: which line, where within it fetch starts, and how many instructions
// of the parent fetch block live there.
type FetchRequest struct {
	// Line is the cache line address.
	Line isa.Addr
	// Start is the first instruction address to fetch within the line.
	Start isa.Addr
	// NumInsts is the number of instructions of the parent block in the line.
	NumInsts int
	// Next is the predicted successor of the parent block (meaningful when
	// LastOfBlock is set).
	Next isa.Addr
	// LastOfBlock marks the final line of the parent fetch block.
	LastOfBlock bool
	// EndsInBranch mirrors the parent block's flag.
	EndsInBranch bool
	// WrongPath marks requests generated on a known-mispredicted path.
	WrongPath bool
	// BlockID is the parent block's sequence number.
	BlockID uint64
}

// Engine is the interface between the decoupled front-end and a prefetching
// scheme.
type Engine interface {
	// Name identifies the scheme ("none", "nextn", "fdp", "clgp").
	Name() string

	// EnqueueBlock accepts a predicted fetch block from the branch
	// predictor; it returns false when the decoupling queue is full.
	EnqueueBlock(fb ftq.FetchBlock) bool
	// QueueFull reports whether another block can be accepted.
	QueueFull() bool
	// QueueEmpty reports whether any fetch work is pending.
	QueueEmpty() bool
	// BlocksQueued returns the number of fetch blocks currently queued.
	BlocksQueued() int

	// NextFetch returns the fetch request at the head of the queue without
	// consuming it.
	NextFetch() (FetchRequest, bool)
	// PopFetch consumes the head fetch request (after the fetch completes).
	PopFetch()

	// LookupBuffer performs the fetch-stage pre-buffer access for a line,
	// applying the scheme's hit policy (FDP: transfer + free; CLGP:
	// decrement consumers, keep). It returns whether valid data was found
	// and the buffer's access latency in cycles.
	LookupBuffer(line isa.Addr, now uint64) (hit bool, latency int)

	// Tick lets the engine scan its queue, issue prefetches to the memory
	// hierarchy and complete outstanding fills. Call once per cycle.
	Tick(now uint64)

	// NextEvent returns the earliest cycle, at or after now, at which Tick
	// could change any state: now while queued work remains (possibly
	// blocked on a buffer slot — conservatively treated as same-cycle work),
	// the earliest fill completion while prefetches are in flight, and
	// clock.None when fully idle. See package clock for the contract.
	NextEvent(now uint64) uint64

	// Flush is called on a branch misprediction: the decoupling queue is
	// emptied and scheme-specific recovery is applied (CLGP resets the
	// consumers counters).
	Flush()

	// BufferLatency returns the pre-buffer access latency in cycles (0 when
	// the scheme has no buffer).
	BufferLatency() int

	// CollectStats adds the engine's counters to a results record.
	CollectStats(r *stats.Results)

	// AddLiveRequests registers the engine's in-flight memory requests with
	// a snapshot identity table (see internal/memory's ReqSet).
	AddLiveRequests(s *memory.ReqSet)
	// Walk walks the engine's mutable state for a snapshot: saving, it
	// writes request pointers as the IDs s assigned them; loading, into an
	// engine built from the same configuration, it resolves them through s.
	Walk(w *snap.Walker, s *memory.ReqSet)
}

// Config carries the parameters shared by all engines.
type Config struct {
	// LineBytes is the instruction cache line size.
	LineBytes int
	// QueueBlocks is the FTQ/CLTQ capacity in fetch blocks (Table 2: 8).
	QueueBlocks int
	// BufferEntries is the pre-buffer size in lines (4, 8 or 16 in the
	// paper, depending on the node and configuration).
	BufferEntries int
	// BufferLatency is the pre-buffer access latency in cycles (1 when it
	// fits the one-cycle capacity; 2-3 when the 16-entry buffer is
	// pipelined).
	BufferLatency int
	// HasL0 reports whether the hierarchy has an L0 cache; FDP transfers
	// used lines there instead of into the L1, and filtering also probes it.
	HasL0 bool
}

// maxPerCycle bounds how many queue entries an engine processes per cycle
// (prefetch issue bandwidth).
const maxPerCycle = 2

func (c Config) normalise() (Config, error) {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return c, fmt.Errorf("prefetch: line size must be a positive power of two, got %d", c.LineBytes)
	}
	if c.QueueBlocks <= 0 {
		return c, fmt.Errorf("prefetch: queue capacity must be positive, got %d", c.QueueBlocks)
	}
	if c.BufferEntries < 0 {
		return c, fmt.Errorf("prefetch: buffer entries must be non-negative, got %d", c.BufferEntries)
	}
	if c.BufferLatency <= 0 {
		c.BufferLatency = 1
	}
	return c, nil
}

// maxCandidateQueue bounds the prefetch instruction queue of the filtering
// engines (FDP, NextN; see filterEngine).
const maxCandidateQueue = 32

// candRing is a fixed ring buffer of candidate prefetch lines; it replaces
// the grow-and-shift slices the engines used to keep, so candidate traffic
// performs no allocations.
type candRing struct {
	buf  [maxCandidateQueue]isa.Addr
	head int
	n    int
}

// push appends a line; it reports false when the ring is full (the candidate
// is dropped, matching the bounded prefetch instruction queue of the paper).
func (r *candRing) push(line isa.Addr) bool {
	if r.n >= maxCandidateQueue {
		return false
	}
	r.buf[(r.head+r.n)%maxCandidateQueue] = line
	r.n++
	return true
}

// peek returns the oldest candidate; only valid when n > 0.
func (r *candRing) peek() isa.Addr { return r.buf[r.head] }

// pop removes the oldest candidate.
func (r *candRing) pop() {
	r.head = (r.head + 1) % maxCandidateQueue
	r.n--
}

// reset empties the ring.
func (r *candRing) reset() {
	r.head = 0
	r.n = 0
}

// outstanding tracks a prefetch in flight between the hierarchy and a
// pre-buffer.
type outstanding struct {
	line isa.Addr
	req  *memory.Request
}

// common holds state shared by the prefetching engines (FDP, NextN, CLGP).
type common struct {
	cfg Config
	mem *memory.Hierarchy
	// pb is the part every pre-buffer shares, for its usage statistics.
	pb *prebuffer.Buffer

	prefetchSources stats.Distribution
	issued          uint64
	inflight        []outstanding
}

// BufferLatency implements Engine.
func (c *common) BufferLatency() int {
	if c.cfg.BufferEntries == 0 {
		return 0
	}
	return c.cfg.BufferLatency
}

// CollectStats implements Engine.
func (c *common) CollectStats(r *stats.Results) {
	r.PrefetchSources.Merge(c.prefetchSources)
	r.PrefetchesIssued += c.issued
	r.PrefetchesUseful += c.pb.UsedLines()
}

// recordSource counts one prefetch request by its supplying level.
func (c *common) recordSource(src stats.Source) { c.prefetchSources.Add(src, 1) }

// nextFillEvent returns the earliest cycle an in-flight prefetch needs
// attention: its completion when scheduled, or the current cycle when it is
// still waiting for the bus or was cancelled (completeFills reaps it on the
// next tick either way).
func (c *common) nextFillEvent(now uint64) uint64 {
	ev := clock.None
	for _, o := range c.inflight {
		ev = clock.Min(ev, o.req.NextEvent(now))
	}
	return ev
}

// issuePrefetch sends a prefetch to the hierarchy and tracks the fill.
func (c *common) issuePrefetch(line isa.Addr, now uint64) {
	req := c.mem.AccessIPrefetch(line, now)
	c.issued++
	c.inflight = append(c.inflight, outstanding{line: line, req: req})
}

// completeFills moves finished prefetches into the pre-buffer via fill and
// records their source, releasing consumed requests back to the hierarchy.
// Prefetches cancelled by a misprediction flush are handed to cancel (which
// must free the pending buffer entry so the slot is not leaked); a nil
// cancel is a no-op for buffers whose pending entries free themselves.
// fill is the buffer's Fill method.
func (c *common) completeFills(now uint64, fill, cancel func(isa.Addr)) {
	kept := c.inflight[:0]
	for _, o := range c.inflight {
		if o.req.Ready(now) {
			if o.req.Cancelled() {
				if cancel != nil {
					cancel(o.line)
				}
			} else {
				fill(o.line)
				c.recordSource(o.req.Source)
			}
			c.mem.Release(o.req)
			continue
		}
		kept = append(kept, o)
	}
	c.inflight = kept
}

// blockCursor adapts a block-granularity FTQ to the line-granularity fetch
// interface: it tracks how far the head block has been consumed. Its
// exported methods are the queue side of Engine for every engine but CLGP.
type blockCursor struct {
	q        *ftq.FTQ
	lineSize int
	// progress within the head block, in instructions.
	consumed int
}

func newBlockCursor(cfg Config) (blockCursor, error) {
	q, err := ftq.NewFTQ(cfg.QueueBlocks)
	return blockCursor{q: q, lineSize: cfg.LineBytes}, err
}

// EnqueueBlock implements Engine.
func (bc *blockCursor) EnqueueBlock(fb ftq.FetchBlock) bool { return bc.q.Push(fb) }

// QueueFull implements Engine.
func (bc *blockCursor) QueueFull() bool { return bc.q.Full() }

// QueueEmpty implements Engine.
func (bc *blockCursor) QueueEmpty() bool { return bc.q.Empty() }

// BlocksQueued implements Engine.
func (bc *blockCursor) BlocksQueued() int { return bc.q.Len() }

// NextFetch implements Engine.
func (bc *blockCursor) NextFetch() (FetchRequest, bool) {
	head, ok := bc.q.Head()
	if !ok {
		return FetchRequest{}, false
	}
	start := head.Start + isa.Addr(bc.consumed)*isa.InstBytes
	line := isa.LineAddr(start, bc.lineSize)
	instsLeftInLine := (bc.lineSize - isa.LineOffset(start, bc.lineSize)) / isa.InstBytes
	remaining := head.NumInsts - bc.consumed
	n := instsLeftInLine
	if n > remaining {
		n = remaining
	}
	last := bc.consumed+n >= head.NumInsts
	return FetchRequest{
		Line:         line,
		Start:        start,
		NumInsts:     n,
		Next:         head.Next,
		LastOfBlock:  last,
		EndsInBranch: head.EndsInBranch && last,
		WrongPath:    head.WrongPath,
		BlockID:      head.SeqID,
	}, true
}

// PopFetch implements Engine.
func (bc *blockCursor) PopFetch() {
	head, ok := bc.q.Head()
	if !ok {
		return
	}
	req, _ := bc.NextFetch()
	bc.consumed += req.NumInsts
	if bc.consumed >= head.NumInsts {
		bc.q.Pop()
		bc.consumed = 0
	}
}

func (bc *blockCursor) flush() {
	bc.q.Flush()
	bc.consumed = 0
}
