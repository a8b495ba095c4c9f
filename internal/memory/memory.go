// Package memory composes the cache hierarchy of the simulated processor:
// an optional L0 instruction cache, the L1 instruction cache, the L1 data
// cache, the unified L2 and main memory, connected to the L2 by a single
// bus arbitrated one request per cycle with the paper's priority order
// (data cache > instruction cache > prefetcher).
//
// The hierarchy answers three kinds of accesses — demand instruction
// fetches, instruction prefetches and data accesses — as Request objects
// whose ReadyAt cycle is resolved either immediately (hits in L0/L1) or when
// the bus grants the request and the L2/memory latency elapses.
package memory

import (
	"fmt"

	"clgp/internal/bus"
	"clgp/internal/cache"
	"clgp/internal/cacti"
	"clgp/internal/isa"
	"clgp/internal/stats"
)

// Kind classifies a hierarchy access.
type Kind int

const (
	// KindIFetch is a demand instruction fetch.
	KindIFetch Kind = iota
	// KindIPrefetch is an instruction prefetch.
	KindIPrefetch
	// KindData is a load/store data access.
	KindData
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindIFetch:
		return "ifetch"
	case KindIPrefetch:
		return "iprefetch"
	case KindData:
		return "data"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Request is one access in flight (or already satisfied).
type Request struct {
	// Line is the (line-aligned) address requested.
	Line isa.Addr
	// Kind is the access kind.
	Kind Kind
	// Source is the deepest hierarchy level that supplies the data. For
	// unscheduled requests it is the level determined so far (L2 or memory
	// resolution happens at bus-grant time).
	Source stats.Source
	// FillL1 and FillL0 request that the line be installed in the L1 / L0
	// instruction caches when the data arrives (demand-miss policy).
	FillL1, FillL0 bool

	scheduled bool
	cancelled bool
	readyAt   uint64
	issuedAt  uint64
	// pfIdx is the request's position in the hierarchy's pending-prefetch
	// index while it is an unscheduled prefetch waiting for the bus
	// (-1 otherwise), so cancellation costs O(in-flight prefetches).
	pfIdx int32
}

// Scheduled reports whether the completion time is known yet.
func (r *Request) Scheduled() bool { return r.scheduled }

// ReadyAt returns the completion cycle (only meaningful once Scheduled).
func (r *Request) ReadyAt() uint64 { return r.readyAt }

// Ready reports whether the data is available at cycle now. A cancelled
// request reports ready so that its owner notices it and releases it.
func (r *Request) Ready(now uint64) bool {
	return (r.scheduled && now >= r.readyAt) || r.cancelled
}

// Cancelled reports whether the request was dropped before being granted the
// bus (CancelPrefetches). The owner must not use its data and should release
// it back to the hierarchy.
func (r *Request) Cancelled() bool { return r.cancelled }

// NextEvent returns the cycle at which the request next needs its owner's
// attention: cancelled and already-ready requests are same-cycle work,
// unscheduled ones are waiting on a bus grant (also same-cycle — the bus
// arbitrates every cycle they are queued), and scheduled ones sleep until
// their data arrives.
func (r *Request) NextEvent(now uint64) uint64 {
	if r.cancelled || !r.scheduled || r.readyAt <= now {
		return now
	}
	return r.readyAt
}

// The Table 2 parameters every configuration shares: 64 B L0/L1 lines, a
// 2-way L1I, a 32 KB 2-way one-cycle L1D and a 1 MB 2-way L2 with 128 B
// lines. The L1I, L2 and memory latencies come from cacti.
const (
	lineBytes   = 64
	l1iAssoc    = 2
	l1dSize     = 32 << 10
	l1dAssoc    = 2
	l1dLatency  = 1
	l2Size      = 1 << 20
	l2Assoc     = 2
	l2LineBytes = 128
)

// Config describes the hierarchy for one simulated configuration: the axes
// the paper's figures vary. Everything else is fixed at Table 2.
type Config struct {
	// Tech selects the technology node (latencies via cacti).
	Tech cacti.Tech

	// L1ISize is the L1 instruction cache size, one of cacti.L1Sizes; its
	// latency is Table 3's for the size and node, and it is not pipelined
	// (see cache.Occupy).
	L1ISize int

	// L0Size of 0 disables the L0; otherwise the L0 is a one-cycle, fully
	// associative cache. It also selects where prefetches look first: with
	// an L0 present, prefetch requests are served by the L1 if it holds the
	// line (Section 3.1.1/3.2.4); without an L0 they go straight to the L2.
	L0Size int

	// IdealICache makes every instruction fetch a one-cycle L1 hit
	// (Figure 1's "ideal" curve).
	IdealICache bool
}

// DefaultConfig returns the memory configuration for the given node and L1
// I-cache size.
func DefaultConfig(tech cacti.Tech, l1iSize int) Config {
	return Config{Tech: tech, L1ISize: l1iSize}
}

// Hierarchy is the composed memory system.
type Hierarchy struct {
	cfg Config

	l0  *cache.Cache // nil when disabled
	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache

	arb *bus.Arbiter

	// slots is a dense table of requests waiting for the bus, indexed by
	// their arbitration tag. Tags are recycled through freeSlots, so the
	// table stays small and lookups are a single index instead of the map
	// the hierarchy used to keep (which both allocated and hashed on the
	// per-cycle path).
	slots     []*Request
	freeSlots []uint32

	// pfPending indexes the slots of prefetch requests still waiting for
	// the bus. CancelPrefetches walks this (swap-removed on grant) instead
	// of scanning the whole slot table, whose size tracks the all-time
	// maximum of outstanding requests, not the current prefetch backlog.
	pfPending []uint32

	// reqFree is the Request free-list: completed requests are returned via
	// Release and reused, so steady-state simulation allocates no Requests.
	reqFree []*Request

	// statistics
	l2IAccesses, l2IMisses uint64
	memIAccesses           uint64
	busConflictCycles      uint64
}

// New builds the hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	l1iLatency, err := cacti.CacheLatency(cfg.L1ISize, cfg.Tech)
	if err != nil {
		return nil, err
	}
	if cfg.L0Size < 0 {
		return nil, fmt.Errorf("memory: L0 size must be non-negative, got %d", cfg.L0Size)
	}
	h := &Hierarchy{cfg: cfg, arb: bus.New()}

	h.l1i, err = cache.New(cache.Config{
		Name: "L1I", SizeBytes: cfg.L1ISize, LineBytes: lineBytes, Assoc: l1iAssoc,
		Latency: l1iLatency,
	})
	if err != nil {
		return nil, err
	}
	if cfg.L0Size > 0 {
		h.l0, err = cache.New(cache.Config{
			Name: "L0", SizeBytes: cfg.L0Size, LineBytes: lineBytes, Latency: 1,
		})
		if err != nil {
			return nil, err
		}
	}
	h.l1d, err = cache.New(cache.Config{
		Name: "L1D", SizeBytes: l1dSize, LineBytes: lineBytes, Assoc: l1dAssoc,
		Latency: l1dLatency,
	})
	if err != nil {
		return nil, err
	}
	h.l2, err = cache.New(cache.Config{
		Name: "L2", SizeBytes: l2Size, LineBytes: l2LineBytes, Assoc: l2Assoc,
		Latency: cacti.L2Latency(cfg.Tech),
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// ReleaseCaches hands the ways of every cache in the hierarchy back for
// reuse (see cache.Cache.Release). The hierarchy must not be accessed
// afterwards; releasing twice is a no-op.
func (h *Hierarchy) ReleaseCaches() {
	if h.l0 != nil {
		h.l0.Release()
	}
	h.l1i.Release()
	h.l1d.Release()
	h.l2.Release()
}

// Config returns the configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L1I, L0, L1D, L2 expose the underlying caches (read-mostly: probing and
// statistics; the prefetch engines use L1I.Probe for FDP filtering).
func (h *Hierarchy) L1I() *cache.Cache { return h.l1i }

// L0 returns the L0 cache, or nil when disabled.
func (h *Hierarchy) L0() *cache.Cache { return h.l0 }

// L1D returns the L1 data cache.
func (h *Hierarchy) L1D() *cache.Cache { return h.l1d }

// L2 returns the unified L2 cache.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// HasL0 reports whether an L0 is configured.
func (h *Hierarchy) HasL0() bool { return h.l0 != nil }

// LineAddr aligns an address to the L1 line size.
func (h *Hierarchy) LineAddr(a isa.Addr) isa.Addr { return isa.LineAddr(a, lineBytes) }

// newRequest takes a request from the free-list (or allocates one) and
// initialises it.
func (h *Hierarchy) newRequest(line isa.Addr, kind Kind) *Request {
	var r *Request
	if n := len(h.reqFree); n > 0 {
		r = h.reqFree[n-1]
		h.reqFree = h.reqFree[:n-1]
	} else {
		r = &Request{}
	}
	*r = Request{Line: line, Kind: kind, pfIdx: -1}
	return r
}

// Release returns a completed (or cancelled) request to the free-list. The
// caller must not touch the request afterwards. Requests still waiting for
// the bus must not be released.
func (h *Hierarchy) Release(r *Request) {
	if r == nil {
		return
	}
	h.reqFree = append(h.reqFree, r)
}

// busClass is the arbitration class each kind of request queues in.
var busClass = [...]bus.Requester{
	KindIFetch:    bus.ReqICache,
	KindIPrefetch: bus.ReqPrefetch,
	KindData:      bus.ReqDCache,
}

// enqueueBus registers a request that needs the L2 bus, in its kind's
// arbitration class.
func (h *Hierarchy) enqueueBus(r *Request, now uint64) {
	var tag uint32
	if n := len(h.freeSlots); n > 0 {
		tag = h.freeSlots[n-1]
		h.freeSlots = h.freeSlots[:n-1]
	} else {
		tag = uint32(len(h.slots))
		h.slots = append(h.slots, nil)
	}
	h.slots[tag] = r
	r.issuedAt = now
	if r.Kind == KindIPrefetch {
		r.pfIdx = int32(len(h.pfPending))
		h.pfPending = append(h.pfPending, tag)
	}
	h.arb.Enqueue(bus.Request{From: busClass[r.Kind], Tag: uint64(tag), Enqueued: now})
}

// untrackPrefetch swap-removes a pending prefetch from the cancellation
// index (on bus grant).
func (h *Hierarchy) untrackPrefetch(r *Request) {
	i := r.pfIdx
	if i < 0 {
		return
	}
	last := int32(len(h.pfPending) - 1)
	if i != last {
		moved := h.pfPending[last]
		h.pfPending[i] = moved
		h.slots[moved].pfIdx = i
	}
	h.pfPending = h.pfPending[:last]
	r.pfIdx = -1
}

// AccessIFetch performs a demand instruction fetch for the line containing
// addr at cycle now. The L0 (if present) and L1 are looked up in parallel;
// on a miss in both, the request goes to the L2 over the bus. fillL1/fillL0
// select the demand-fill policy applied when the data arrives from L2 or
// memory.
func (h *Hierarchy) AccessIFetch(addr isa.Addr, now uint64, fillL1, fillL0 bool) *Request {
	line := h.LineAddr(addr)
	r := h.newRequest(line, KindIFetch)
	r.FillL1, r.FillL0 = fillL1, fillL0

	if h.cfg.IdealICache {
		// Figure 1 "ideal": every fetch is a one-cycle L1 hit.
		h.l1i.Lookup(line)
		h.l1i.Insert(line)
		r.Source = stats.SrcL1
		r.scheduled = true
		r.readyAt = now + 1
		return r
	}

	l0Hit := false
	if h.l0 != nil {
		l0Hit = h.l0.Lookup(line)
	}
	l1Hit := h.l1i.Lookup(line)

	switch {
	case l0Hit:
		r.Source = stats.SrcL0
		r.scheduled = true
		r.readyAt = now + uint64(h.l0.Latency())
	case l1Hit:
		r.Source = stats.SrcL1
		r.scheduled = true
		r.readyAt = h.l1i.Occupy(now)
		// A demand L1 hit also refreshes the L0 when one is present (the L0
		// captures recently fetched lines, filter-cache style).
		if fillL0 && h.l0 != nil {
			h.l0.Insert(line)
		}
	default:
		// Miss in L0 and L1: go to the L2 over the bus.
		r.Source = stats.SrcL2 // provisional; resolved at grant time
		h.enqueueBus(r, now)
	}
	return r
}

// AccessIPrefetch requests a prefetch of the line containing addr at cycle
// now. With an L0 present and the line resident in L1, the prefetch is
// served by the L1; otherwise it is sent to the L2 over the bus (lowest
// priority).
func (h *Hierarchy) AccessIPrefetch(addr isa.Addr, now uint64) *Request {
	line := h.LineAddr(addr)
	r := h.newRequest(line, KindIPrefetch)

	if h.l0 != nil && h.l1i.Probe(line) {
		r.Source = stats.SrcL1
		r.scheduled = true
		r.readyAt = now + uint64(h.l1i.Latency())
		return r
	}
	r.Source = stats.SrcL2 // provisional
	h.enqueueBus(r, now)
	return r
}

// AccessData performs a load/store access at cycle now. Stores are treated
// as writes that hit or allocate in the L1D; loads that miss go to the L2
// over the bus with the highest priority.
func (h *Hierarchy) AccessData(addr isa.Addr, now uint64, isStore bool) *Request {
	line := isa.LineAddr(addr, lineBytes)
	r := h.newRequest(line, KindData)
	hit := h.l1d.Lookup(line)
	if hit || isStore {
		if !hit {
			// Write-allocate without stalling the store.
			h.l1d.Insert(line)
		}
		r.Source = stats.SrcL1
		r.scheduled = true
		r.readyAt = now + uint64(h.l1d.Latency())
		return r
	}
	r.Source = stats.SrcL2 // provisional
	h.enqueueBus(r, now)
	return r
}

// Tick advances the bus by one cycle: at most one waiting request is granted
// and scheduled (L2 lookup, memory on L2 miss, fills). It must be called
// once per simulated cycle.
func (h *Hierarchy) Tick(now uint64) {
	if h.arb.Pending() > 1 {
		h.busConflictCycles++
	}
	req, ok := h.arb.Grant(now)
	if !ok {
		return
	}
	tag := uint32(req.Tag)
	r := h.slots[tag]
	h.slots[tag] = nil
	h.freeSlots = append(h.freeSlots, tag)
	if r == nil {
		return
	}
	if r.Kind == KindIPrefetch {
		h.untrackPrefetch(r)
	}
	h.schedule(r, now)
}

// schedule resolves a bus-granted request against the L2 and memory.
func (h *Hierarchy) schedule(r *Request, now uint64) {
	l2Line := isa.LineAddr(r.Line, l2LineBytes)
	l2Hit := h.l2.Lookup(l2Line)
	if r.Kind != KindData {
		h.l2IAccesses++
	}
	if l2Hit {
		r.Source = stats.SrcL2
		r.readyAt = now + uint64(h.l2.Latency())
	} else {
		if r.Kind != KindData {
			h.l2IMisses++
			h.memIAccesses++
		}
		r.Source = stats.SrcMem
		r.readyAt = now + uint64(h.l2.Latency()) + uint64(cacti.MemoryLatency())
		h.l2.Insert(l2Line)
	}
	r.scheduled = true

	switch r.Kind {
	case KindIFetch:
		if r.FillL1 {
			h.l1i.Insert(r.Line)
		}
		if r.FillL0 && h.l0 != nil {
			h.l0.Insert(r.Line)
		}
	case KindData:
		h.l1d.Insert(r.Line)
	case KindIPrefetch:
		// Prefetch fills are the caller's responsibility (they go into the
		// pre-buffer, not the caches).
	}
}

// PendingBusRequests returns the number of requests waiting for the bus.
func (h *Hierarchy) PendingBusRequests() int { return h.arb.Pending() }

// NextEvent implements the clock contract for the hierarchy: Tick only does
// work while requests wait for the bus (one grant per cycle, plus the
// bus-conflict statistic, which also only moves while something is queued).
// Completion times of scheduled requests are their owners' events, not the
// hierarchy's.
func (h *Hierarchy) NextEvent(now uint64) uint64 { return h.arb.NextEvent(now) }

// CancelPrefetches drops all prefetch requests still waiting for the bus
// (used on a misprediction flush). Requests already granted complete
// normally. Cancelled requests are marked ready-and-cancelled so their
// owners observe the cancellation and release them. It returns the number of
// cancelled requests.
//
// The walk is over the pending-prefetch index, so a flush costs O(in-flight
// prefetches) instead of O(slot-table size) — the table's length tracks the
// all-time maximum of outstanding requests of every kind, which on
// memory-bound runs is far larger than the handful of prefetches a
// misprediction squashes.
func (h *Hierarchy) CancelPrefetches() int {
	n := h.arb.Flush(bus.ReqPrefetch)
	for _, tag := range h.pfPending {
		r := h.slots[tag]
		h.slots[tag] = nil
		h.freeSlots = append(h.freeSlots, tag)
		r.cancelled = true
		r.pfIdx = -1
	}
	h.pfPending = h.pfPending[:0]
	return n
}

// InsertL0 installs a line into the L0 cache if one is configured (used by
// FDP when a prefetch-buffer hit moves the line into the L0).
func (h *Hierarchy) InsertL0(addr isa.Addr) {
	if h.l0 != nil {
		h.l0.Insert(h.LineAddr(addr))
	}
}

// InsertL1I installs a line into the L1 instruction cache (used by FDP when
// a prefetch-buffer hit moves the line into the L1 in the no-L0 variant).
func (h *Hierarchy) InsertL1I(addr isa.Addr) {
	h.l1i.Insert(h.LineAddr(addr))
}

// Stats fills the hierarchy-owned counters of a results record.
func (h *Hierarchy) Stats(r *stats.Results) {
	r.L1Accesses = h.l1i.Accesses()
	r.L1Misses = h.l1i.Misses()
	if h.l0 != nil {
		r.L0Accesses = h.l0.Accesses()
		r.L0Misses = h.l0.Misses()
	}
	r.L2Accesses = h.l2IAccesses
	r.L2Misses = h.l2IMisses
	r.DCacheAccesses = h.l1d.Accesses()
	r.DCacheMisses = h.l1d.Misses()
	r.BusConflicts = h.busConflictCycles
}

// L1ILatency returns the configured L1 I-cache latency.
func (h *Hierarchy) L1ILatency() int { return h.l1i.Latency() }
