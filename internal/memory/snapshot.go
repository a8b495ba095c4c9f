package memory

import (
	"clgp/internal/snap"
	"clgp/internal/stats"
)

// Snapshot identity of in-flight requests
//
// A *Request is shared by pointer between its owner (the core's fetch stage,
// a pipeline load, a prefetch engine's outstanding list, the drain list) and
// the hierarchy's slot table while it waits for the bus. A request that has
// been granted the bus leaves the slot table but stays live with its owner
// until it completes, so no single structure enumerates every live request.
// ReqSet assigns each distinct pointer a stable 1-based ID at save time
// (0 encodes nil); every owner serialises the ID, and restore rebuilds one
// fresh Request per table entry so the owners share pointers exactly as
// before.

// reqStateTag opens the request table section ("REQS").
const reqStateTag uint32 = 0x53514552

// memStateTag opens the hierarchy section ("MEMH").
const memStateTag uint32 = 0x484D454D

// maxLiveRequests bounds a decoded request table; live requests are bounded
// by slot-table size plus a handful of owner-held in-flight fills.
const maxLiveRequests = 1 << 20

// ReqSet is the save/restore identity table for in-flight memory requests.
type ReqSet struct {
	ids  map[*Request]uint32
	list []*Request
}

// NewReqSet returns an empty table.
func NewReqSet() *ReqSet { return &ReqSet{ids: make(map[*Request]uint32)} }

// Add registers a request (nil is ignored; duplicates collapse).
func (s *ReqSet) Add(r *Request) {
	if r == nil {
		return
	}
	if _, ok := s.ids[r]; ok {
		return
	}
	s.list = append(s.list, r)
	s.ids[r] = uint32(len(s.list)) // 1-based; 0 is nil
}

// ID returns the table ID of r (0 for nil). Every owner must have registered
// its requests with Add before serialising references.
func (s *ReqSet) ID(r *Request) uint32 {
	if r == nil {
		return 0
	}
	return s.ids[r]
}

// At returns the request with table ID id, or nil for id 0.
func (s *ReqSet) At(id uint32) *Request {
	if id == 0 {
		return nil
	}
	return s.list[id-1]
}

// Len returns the number of registered requests.
func (s *ReqSet) Len() int { return len(s.list) }

// WalkID walks the table reference for *r. Saving fails when *r is live
// but was never registered: its ID would be 0, and the restored owner would
// silently hold nil. Loading fails on an ID outside the table.
func (s *ReqSet) WalkID(w *snap.Walker, r **Request) {
	id := s.ID(*r)
	if id == 0 && *r != nil && !w.Loading() {
		w.Failf("memory: a %v request for line %#x was never registered", (*r).Kind, uint64((*r).Line))
	}
	w.U32(&id)
	if !w.Loading() || w.Err() != nil {
		return
	}
	if id > uint32(len(s.list)) {
		w.Failf("request ID %d outside table of %d", id, len(s.list))
		return
	}
	*r = s.At(id)
}

// Walk walks the full table: one record per live request. Loading
// allocates one fresh Request per record, which owners then resolve by ID
// through At (a loaded table assigns no IDs of its own), and rejects a
// Kind or Source outside its enumeration: restored requests index per-kind
// and per-source tables.
func (s *ReqSet) Walk(w *snap.Walker) {
	w.Tag(reqStateTag)
	snap.Slice(w, &s.list, maxLiveRequests, func(p **Request) {
		if w.Loading() {
			*p = new(Request)
		}
		r := *p
		snap.Word(w, &r.Line)
		snap.Byte(w, &r.Kind)
		snap.Byte(w, &r.Source)
		w.Bool(&r.FillL1)
		w.Bool(&r.FillL0)
		w.Bool(&r.scheduled)
		w.Bool(&r.cancelled)
		w.U64(&r.readyAt)
		w.U64(&r.issuedAt)
		pfIdx := int64(r.pfIdx)
		w.I64(&pfIdx)
		if w.Loading() {
			r.pfIdx = int32(pfIdx)
		}
	})
	if !w.Loading() || w.Err() != nil {
		return
	}
	for i, r := range s.list {
		if r.Kind > KindData {
			w.Failf("request %d has kind %d", i+1, r.Kind)
		}
		if r.Source >= stats.NumSources {
			w.Failf("request %d has source %d of %d", i+1, r.Source, stats.NumSources)
		}
	}
}

// AddLiveRequests registers every request the hierarchy itself holds (the
// bus-waiting slot table) with the identity table.
func (h *Hierarchy) AddLiveRequests(s *ReqSet) {
	for _, r := range h.slots {
		s.Add(r)
	}
}

// Walk walks the hierarchy: all cache arrays, the bus arbiter, the slot
// table (positionally — bus request tags are slot indices), the free-slot
// and pending-prefetch index stacks verbatim (their LIFO order steers future
// slot allocation), and the hierarchy counters. The request free-list is
// deliberately dead state and not saved. A loaded hierarchy must match the
// receiving one's configuration, and its slot bookkeeping must pass
// checkSlots.
func (h *Hierarchy) Walk(w *snap.Walker, s *ReqSet) {
	w.Tag(memStateTag)
	hasL0 := h.l0 != nil
	w.Bool(&hasL0)
	if w.Err() != nil {
		return
	}
	if hasL0 != (h.l0 != nil) {
		w.Failf("memory: L0 presence mismatch: snapshot %v, hierarchy %v", hasL0, h.l0 != nil)
		return
	}
	if h.l0 != nil {
		h.l0.Walk(w)
	}
	h.l1i.Walk(w)
	h.l1d.Walk(w)
	h.l2.Walk(w)
	h.arb.Walk(w)
	snap.Slice(w, &h.slots, maxLiveRequests, func(r **Request) { s.WalkID(w, r) })
	snap.Slice(w, &h.freeSlots, maxLiveRequests, w.U32)
	snap.Slice(w, &h.pfPending, maxLiveRequests, w.U32)
	w.U64(&h.l2IAccesses)
	w.U64(&h.l2IMisses)
	w.U64(&h.memIAccesses)
	w.U64(&h.busConflictCycles)
	if w.Loading() {
		h.checkSlots(w)
	}
}

// checkSlots rejects slot bookkeeping that enqueueBus, Tick and
// untrackPrefetch cannot produce: every slot is live or on the free list,
// exactly once; the bus queues hold exactly the live slots, each once and in
// its kind's class; and pfPending lists each waiting prefetch at the index
// its pfIdx records. Such state would later index out of range, hand one tag
// to two requests, or leave a request waiting for a grant that never comes.
func (h *Hierarchy) checkSlots(w *snap.Walker) {
	if w.Err() != nil {
		return
	}
	free := make([]bool, len(h.slots))
	queued := make([]bool, len(h.slots))
	for _, q := range h.arb.Queued(nil) {
		switch {
		case q.Tag >= uint64(len(h.slots)):
			w.Failf("memory: bus queues tag %d outside a slot table of %d", q.Tag, len(h.slots))
		case h.slots[q.Tag] == nil:
			w.Failf("memory: bus queues tag %d, an empty slot", q.Tag)
		case queued[q.Tag]:
			w.Failf("memory: bus queues tag %d twice", q.Tag)
		case busClass[h.slots[q.Tag].Kind] != q.From:
			w.Failf("memory: bus queues the %v request in slot %d as %v", h.slots[q.Tag].Kind, q.Tag, q.From)
		default:
			queued[q.Tag] = true
			continue
		}
		return
	}
	for _, tag := range h.freeSlots {
		switch {
		case int(tag) >= len(h.slots):
			w.Failf("memory: free slot tag %d outside a slot table of %d", tag, len(h.slots))
		case h.slots[tag] != nil:
			w.Failf("memory: free slot tag %d names a live request", tag)
		case free[tag]:
			w.Failf("memory: free slot tag %d listed twice", tag)
		default:
			free[tag] = true
			continue
		}
		return
	}
	for i, tag := range h.pfPending {
		switch {
		case int(tag) >= len(h.slots):
			w.Failf("memory: pending prefetch tag %d outside a slot table of %d", tag, len(h.slots))
		case h.slots[tag] == nil || h.slots[tag].Kind != KindIPrefetch:
			w.Failf("memory: pending prefetch tag %d names no waiting prefetch", tag)
		case h.slots[tag].pfIdx != int32(i):
			w.Failf("memory: pending prefetch %d (tag %d) records index %d", i, tag, h.slots[tag].pfIdx)
		default:
			continue
		}
		return
	}
	for tag, r := range h.slots {
		switch {
		case r == nil && !free[tag]:
			w.Failf("memory: empty slot %d missing from the free list", tag)
		case r != nil && !queued[tag]:
			w.Failf("memory: live slot %d is not queued on the bus", tag)
		case r != nil && r.Kind == KindIPrefetch &&
			(r.pfIdx < 0 || int(r.pfIdx) >= len(h.pfPending) || h.pfPending[r.pfIdx] != uint32(tag)):
			w.Failf("memory: waiting prefetch in slot %d not pending at its index %d", tag, r.pfIdx)
		default:
			continue
		}
		return
	}
}
