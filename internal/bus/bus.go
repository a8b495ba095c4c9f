// Package bus models the single bus between the L1 caches and the unified
// L2 cache. As in the paper, the bus can serve only one request per cycle
// and arbitration follows a fixed priority: L1 data cache requests first,
// then L1 instruction cache (demand) requests, and prefetch requests only
// when no higher-priority request wants the bus in the same cycle.
package bus

import (
	"fmt"

	"clgp/internal/clock"
)

// Requester identifies the origin of a bus request, in priority order
// (lower value = higher priority).
type Requester int

const (
	// ReqDCache is a demand request from the L1 data cache.
	ReqDCache Requester = iota
	// ReqICache is a demand request from the L1 instruction cache.
	ReqICache
	// ReqPrefetch is a prefetch request from the prefetch engine.
	ReqPrefetch

	numRequesters
)

// String names the requester.
func (r Requester) String() string {
	switch r {
	case ReqDCache:
		return "dcache"
	case ReqICache:
		return "icache"
	case ReqPrefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("requester(%d)", int(r))
	}
}

// Request is one pending bus transaction.
type Request struct {
	// From identifies the requester class (used for arbitration priority).
	From Requester
	// Tag is an opaque identifier the owner uses to match grants to its own
	// bookkeeping (e.g. a line address or MSHR index).
	Tag uint64
	// Enqueued is the cycle the request entered the queue.
	Enqueued uint64
}

// fifo is a growable ring buffer of requests. Unlike the obvious
// `q = q[1:]; append(q, ...)` idiom, it never leaks capacity, so a
// steady-state enqueue/dequeue workload performs no allocations.
type fifo struct {
	buf  []Request
	head int
	n    int
}

func (f *fifo) push(r Request) {
	if f.n == len(f.buf) {
		grown := make([]Request, max(8, 2*len(f.buf)))
		for i := 0; i < f.n; i++ {
			grown[i] = f.buf[(f.head+i)%len(f.buf)]
		}
		f.buf = grown
		f.head = 0
	}
	f.buf[(f.head+f.n)%len(f.buf)] = r
	f.n++
}

func (f *fifo) pop() Request {
	r := f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return r
}

func (f *fifo) reset() {
	f.head = 0
	f.n = 0
}

// Arbiter is the single-grant-per-cycle bus arbiter.
type Arbiter struct {
	queues [numRequesters]fifo

	grants    uint64
	conflicts uint64
	lastGrant uint64
	hasGrant  bool
}

// New creates an empty arbiter.
func New() *Arbiter { return &Arbiter{} }

// Enqueue adds a request to the requester's queue.
func (a *Arbiter) Enqueue(r Request) {
	if r.From < 0 || r.From >= numRequesters {
		r.From = ReqPrefetch
	}
	a.queues[r.From].push(r)
}

// Pending returns the total number of queued requests.
func (a *Arbiter) Pending() int {
	n := 0
	for i := range a.queues {
		n += a.queues[i].n
	}
	return n
}

// Grant performs one cycle of arbitration at cycle `now`, returning the
// granted request (highest priority, FIFO within a class) and ok=true, or
// ok=false when no request is pending. At most one request is granted per
// cycle; calling Grant twice with the same cycle number returns ok=false the
// second time.
func (a *Arbiter) Grant(now uint64) (Request, bool) {
	if a.hasGrant && a.lastGrant == now {
		return Request{}, false
	}
	waiting := 0
	for i := range a.queues {
		if a.queues[i].n > 0 {
			waiting++
		}
	}
	for cls := Requester(0); cls < numRequesters; cls++ {
		if a.queues[cls].n == 0 {
			continue
		}
		req := a.queues[cls].pop()
		a.grants++
		if waiting > 1 {
			// At least one other class had to wait this cycle.
			a.conflicts++
		}
		a.lastGrant = now
		a.hasGrant = true
		return req, true
	}
	return Request{}, false
}

// NextEvent implements the clock contract: the bus grants one request per
// cycle, so any queued request is same-cycle work; an empty arbiter has no
// events of its own (scheduled completion times belong to request owners).
func (a *Arbiter) NextEvent(now uint64) uint64 {
	if a.Pending() > 0 {
		return now
	}
	return clock.None
}

// Flush drops all pending requests from one requester class (used when the
// front-end squashes on a misprediction and wants to cancel queued
// prefetches). It returns the number of dropped requests.
func (a *Arbiter) Flush(r Requester) int {
	if r < 0 || r >= numRequesters {
		return 0
	}
	n := a.queues[r].n
	a.queues[r].reset()
	return n
}

// Queued appends every queued request to dst, class by class in priority
// order and FIFO within a class, and returns the extended slice.
func (a *Arbiter) Queued(dst []Request) []Request {
	for cls := range a.queues {
		q := &a.queues[cls]
		for i := 0; i < q.n; i++ {
			dst = append(dst, q.buf[(q.head+i)%len(q.buf)])
		}
	}
	return dst
}

// Grants returns the total number of granted requests.
func (a *Arbiter) Grants() uint64 { return a.grants }
