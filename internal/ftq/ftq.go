// Package ftq implements the two decoupling queues of the paper's
// front-ends:
//
//   - FTQ (fetch target queue): each entry is a whole fetch block (a run of
//     sequential instructions ending at a predicted-taken branch), as in
//     Reinman et al.'s Fetch Directed Prefetching.
//   - CLTQ (cache line target queue): fetch blocks are split into fetch
//     cache lines before being enqueued; each entry holds exactly one cache
//     line plus the 'prefetched' and 'occupied' bits used by CLGP.
//
// Both queues bound occupancy by the number of fetch *blocks* (8 in the
// paper), so FDP and CLGP get the same prediction look-ahead and the same
// opportunities to initiate prefetches.
//
// Both queues are ring buffers: Push/Pop in steady state perform no heap
// allocations, which keeps them off the profile of the core cycle loop.
package ftq

import (
	"fmt"

	"clgp/internal/isa"
)

// FetchBlock is one prediction produced by the branch predictor: a run of
// sequential instructions starting at Start, containing NumInsts
// instructions, ending because of a predicted-taken control instruction (or
// a maximum-length cut). Next is the predicted address of the following
// fetch block.
type FetchBlock struct {
	// Start is the address of the first instruction of the block.
	Start isa.Addr
	// NumInsts is the number of instructions in the block (>= 1).
	NumInsts int
	// Next is the predicted start address of the successor block.
	Next isa.Addr
	// EndsInBranch reports whether the block ends at a predicted-taken
	// control instruction (false when the block was cut at max length).
	EndsInBranch bool
	// WrongPath marks blocks generated while the front-end is known (by the
	// simulator, not by the hardware) to be on a mispredicted path.
	WrongPath bool
	// SeqID is a monotonically increasing identifier assigned by the
	// predictor, used to associate CLTQ lines with their parent block.
	SeqID uint64
}

// Lines returns the cache-line addresses the block spans, in fetch order.
// It allocates; hot-path callers should iterate with NumLines/LineAt.
func (fb FetchBlock) Lines(lineSize int) []isa.Addr {
	n := fb.NumLines(lineSize)
	out := make([]isa.Addr, n)
	for i := 0; i < n; i++ {
		out[i] = fb.LineAt(i, lineSize)
	}
	return out
}

// NumLines returns the number of cache lines the block spans.
func (fb FetchBlock) NumLines(lineSize int) int {
	return isa.LinesSpanned(fb.Start, fb.NumInsts, lineSize)
}

// LineAt returns the i-th cache line address of the block (0-based).
func (fb FetchBlock) LineAt(i, lineSize int) isa.Addr {
	return isa.LineAddr(fb.Start, lineSize) + isa.Addr(i*lineSize)
}

// FTQ is the fetch target queue: a bounded FIFO of fetch blocks backed by a
// fixed ring buffer.
type FTQ struct {
	blocks []FetchBlock // ring storage, len == capacity
	head   int
	n      int
}

// NewFTQ creates an FTQ bounded to capacity fetch blocks.
func NewFTQ(capacity int) (*FTQ, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("ftq: capacity must be positive, got %d", capacity)
	}
	return &FTQ{blocks: make([]FetchBlock, capacity)}, nil
}

// Capacity returns the maximum number of fetch blocks.
func (q *FTQ) Capacity() int { return len(q.blocks) }

// Len returns the current number of fetch blocks.
func (q *FTQ) Len() int { return q.n }

// Full reports whether no further block can be enqueued.
func (q *FTQ) Full() bool { return q.n >= len(q.blocks) }

// Empty reports whether the queue has no blocks.
func (q *FTQ) Empty() bool { return q.n == 0 }

// Push enqueues a fetch block; it returns false when the queue is full.
func (q *FTQ) Push(fb FetchBlock) bool {
	if q.Full() {
		return false
	}
	q.blocks[(q.head+q.n)%len(q.blocks)] = fb
	q.n++
	return true
}

// Head returns the oldest block without removing it.
func (q *FTQ) Head() (FetchBlock, bool) {
	if q.Empty() {
		return FetchBlock{}, false
	}
	return q.blocks[q.head], true
}

// Pop removes and returns the oldest block.
func (q *FTQ) Pop() (FetchBlock, bool) {
	if q.Empty() {
		return FetchBlock{}, false
	}
	fb := q.blocks[q.head]
	q.head = (q.head + 1) % len(q.blocks)
	q.n--
	return fb, true
}

// At returns the i-th oldest block (0 = head) for prefetch scanning.
func (q *FTQ) At(i int) (FetchBlock, bool) {
	if i < 0 || i >= q.n {
		return FetchBlock{}, false
	}
	return q.blocks[(q.head+i)%len(q.blocks)], true
}

// Flush empties the queue (branch misprediction recovery).
func (q *FTQ) Flush() {
	q.head = 0
	q.n = 0
}

// CLTQEntry is one cache-line-granularity entry of the CLTQ.
type CLTQEntry struct {
	// Line is the fetch cache line address.
	Line isa.Addr
	// Start is the address of the first instruction to fetch within the line
	// (the fetch block may enter the line in the middle).
	Start isa.Addr
	// NumInsts is the number of instructions of the parent fetch block that
	// live in this line.
	NumInsts int
	// Next is the predicted successor of the parent fetch block; only
	// meaningful on the last line of a block (LastOfBlock == true).
	Next isa.Addr
	// LastOfBlock marks the final line of its parent fetch block.
	LastOfBlock bool
	// EndsInBranch mirrors the parent block's flag (only meaningful when
	// LastOfBlock is true).
	EndsInBranch bool
	// WrongPath mirrors the parent block's flag.
	WrongPath bool
	// BlockID is the parent block's SeqID.
	BlockID uint64
	// Prefetched is the 'prefetched bit' of the paper: set when the CLGP
	// engine has processed this entry (issued a prefetch or found the line
	// already staged).
	Prefetched bool
	// Occupied is the 'occupied bit': true while the entry holds a fetch
	// cache line that has not been fetched yet.
	Occupied bool
}

// CLTQ is the cache line target queue. Occupancy is bounded by the number of
// distinct fetch blocks whose lines are queued (to match the FTQ bound), not
// by the number of line entries. Storage is a growable ring buffer; once the
// ring has grown to the working-set size, Push/Pop allocate nothing.
type CLTQ struct {
	blockCapacity int
	lineSize      int
	entries       []CLTQEntry // ring storage
	head          int
	n             int
	blockCount    int
	// scanHint is the logical index below which every entry is known to be
	// prefetched, so NextUnprefetched does not rescan the whole queue.
	scanHint int
	// linesScratch backs QueuedLines so that repeated calls do not allocate.
	linesScratch []isa.Addr
}

// NewCLTQ creates a CLTQ bounded to blockCapacity fetch blocks, splitting
// blocks into lines of lineSize bytes.
func NewCLTQ(blockCapacity, lineSize int) (*CLTQ, error) {
	if blockCapacity <= 0 {
		return nil, fmt.Errorf("cltq: block capacity must be positive, got %d", blockCapacity)
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cltq: line size must be a positive power of two, got %d", lineSize)
	}
	return &CLTQ{blockCapacity: blockCapacity, lineSize: lineSize}, nil
}

// Capacity returns the block capacity.
func (q *CLTQ) Capacity() int { return q.blockCapacity }

// LineSize returns the cache line size used to split fetch blocks.
func (q *CLTQ) LineSize() int { return q.lineSize }

// Blocks returns the number of distinct fetch blocks currently queued.
func (q *CLTQ) Blocks() int { return q.blockCount }

// Len returns the number of line entries currently queued.
func (q *CLTQ) Len() int { return q.n }

// Full reports whether another fetch block can be accepted.
func (q *CLTQ) Full() bool { return q.blockCount >= q.blockCapacity }

// Empty reports whether there are no line entries.
func (q *CLTQ) Empty() bool { return q.n == 0 }

// at returns a pointer to the i-th oldest entry; i must be in [0, q.n).
func (q *CLTQ) at(i int) *CLTQEntry {
	return &q.entries[(q.head+i)%len(q.entries)]
}

// push appends one entry, growing the ring if needed.
func (q *CLTQ) push(e CLTQEntry) {
	if q.n == len(q.entries) {
		grown := make([]CLTQEntry, max(16, 2*len(q.entries)))
		for i := 0; i < q.n; i++ {
			grown[i] = *q.at(i)
		}
		q.entries = grown
		q.head = 0
	}
	q.entries[(q.head+q.n)%len(q.entries)] = e
	q.n++
}

// Push splits a fetch block into fetch cache lines and enqueues them. It
// returns false (enqueuing nothing) when the queue already holds its maximum
// number of blocks.
func (q *CLTQ) Push(fb FetchBlock) bool {
	if q.Full() {
		return false
	}
	if fb.NumInsts <= 0 {
		return false
	}
	numLines := fb.NumLines(q.lineSize)
	instsPerLine := q.lineSize / isa.InstBytes
	start := fb.Start
	remaining := fb.NumInsts
	for i := 0; i < numLines; i++ {
		la := fb.LineAt(i, q.lineSize)
		// Number of instructions of this block within this line.
		offInsts := int(start-la) / isa.InstBytes
		n := instsPerLine - offInsts
		if n > remaining {
			n = remaining
		}
		e := CLTQEntry{
			Line:         la,
			Start:        start,
			NumInsts:     n,
			BlockID:      fb.SeqID,
			WrongPath:    fb.WrongPath,
			Occupied:     true,
			LastOfBlock:  i == numLines-1,
			EndsInBranch: fb.EndsInBranch && i == numLines-1,
		}
		if e.LastOfBlock {
			e.Next = fb.Next
		}
		q.push(e)
		start = la + isa.Addr(q.lineSize)
		remaining -= n
	}
	q.blockCount++
	return true
}

// Head returns the oldest line entry without removing it.
func (q *CLTQ) Head() (CLTQEntry, bool) {
	if q.Empty() {
		return CLTQEntry{}, false
	}
	return *q.at(0), true
}

// Pop removes and returns the oldest line entry, updating the block count
// when the last line of a block leaves the queue.
func (q *CLTQ) Pop() (CLTQEntry, bool) {
	if q.Empty() {
		return CLTQEntry{}, false
	}
	e := *q.at(0)
	q.head = (q.head + 1) % len(q.entries)
	q.n--
	if q.scanHint > 0 {
		q.scanHint--
	}
	if e.LastOfBlock {
		q.blockCount--
	}
	return e, true
}

// At returns the i-th oldest line entry (0 = head).
func (q *CLTQ) At(i int) (CLTQEntry, bool) {
	if i < 0 || i >= q.n {
		return CLTQEntry{}, false
	}
	return *q.at(i), true
}

// MarkPrefetched sets the prefetched bit of the i-th oldest entry.
func (q *CLTQ) MarkPrefetched(i int) {
	if i >= 0 && i < q.n {
		q.at(i).Prefetched = true
	}
}

// NextUnprefetched returns the index of the oldest entry whose prefetched
// bit is clear, or -1 when every queued entry has been processed. The scan
// resumes from the last known prefetched prefix, so a full walk of the queue
// happens only once per entry rather than once per cycle. It is idempotent
// (the hint only caches the processed prefix), which lets the CLGP engine
// call it both from Tick and from its NextEvent horizon probe.
func (q *CLTQ) NextUnprefetched() int {
	for i := q.scanHint; i < q.n; i++ {
		if !q.at(i).Prefetched {
			q.scanHint = i
			return i
		}
		q.scanHint = i + 1
	}
	return -1
}

// Flush empties the queue (branch misprediction recovery).
func (q *CLTQ) Flush() {
	q.head = 0
	q.n = 0
	q.blockCount = 0
	q.scanHint = 0
}

// QueuedLines returns the distinct line addresses currently queued, in order
// of first appearance. The returned slice is owned by the CLTQ and is only
// valid until the next call (it previously allocated a fresh map and slice
// per call; the queue is at most a few tens of entries, so a linear-scan
// dedup into a reusable buffer is both allocation-free and faster).
func (q *CLTQ) QueuedLines() []isa.Addr {
	out := q.linesScratch[:0]
	for i := 0; i < q.n; i++ {
		line := q.at(i).Line
		seen := false
		for _, l := range out {
			if l == line {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, line)
		}
	}
	q.linesScratch = out
	return out
}
