package memory

import (
	"clgp/internal/isa"
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

// SaveID writes the table reference for r. It latches an error when r is
// live but was never registered, which would silently break pointer sharing.
func (s *ReqSet) SaveID(e *snap.Encoder, r *Request) {
	id := s.ID(r)
	e.U32(id)
}

// LoadID reads a table reference and resolves it, latching an error on an
// out-of-range ID.
func (s *ReqSet) LoadID(d *snap.Decoder) *Request {
	id := d.U32()
	if d.Err() != nil {
		return nil
	}
	if id > uint32(len(s.list)) {
		d.Failf("request ID %d outside table of %d", id, len(s.list))
		return nil
	}
	return s.At(id)
}

// Save serialises the full table: one record per live request.
func (s *ReqSet) Save(e *snap.Encoder) {
	e.Tag(reqStateTag)
	e.Int(len(s.list))
	for _, r := range s.list {
		e.U64(uint64(r.Line))
		e.U8(uint8(r.Kind))
		e.U8(uint8(r.Source))
		e.Bool(r.FillL1)
		e.Bool(r.FillL0)
		e.Bool(r.scheduled)
		e.Bool(r.cancelled)
		e.U64(r.readyAt)
		e.U64(r.issuedAt)
		e.I64(int64(r.pfIdx))
	}
}

// Load rebuilds the table from a stream written by Save, allocating one
// fresh Request per entry. A Kind or Source byte outside its enumeration
// fails the decoder: restored requests index per-source tables.
func (s *ReqSet) Load(d *snap.Decoder) {
	d.Tag(reqStateTag)
	n := d.Count(maxLiveRequests)
	s.list = make([]*Request, 0, n)
	s.ids = make(map[*Request]uint32, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		r := &Request{
			Line:      isa.Addr(d.U64()),
			Kind:      Kind(d.U8()),
			Source:    stats.Source(d.U8()),
			FillL1:    d.Bool(),
			FillL0:    d.Bool(),
			scheduled: d.Bool(),
			cancelled: d.Bool(),
			readyAt:   d.U64(),
			issuedAt:  d.U64(),
			pfIdx:     int32(d.I64()),
		}
		if r.Kind > KindData {
			d.Failf("request %d has kind %d", i+1, r.Kind)
		}
		if r.Source >= stats.NumSources {
			d.Failf("request %d has source %d of %d", i+1, r.Source, stats.NumSources)
		}
		s.list = append(s.list, r)
		s.ids[r] = uint32(len(s.list))
	}
}

// AddLiveRequests registers every request the hierarchy itself holds (the
// bus-waiting slot table) with the identity table.
func (h *Hierarchy) AddLiveRequests(s *ReqSet) {
	for _, r := range h.slots {
		s.Add(r)
	}
}

// SaveState serialises the hierarchy: all cache arrays, the bus arbiter, the
// slot table (positionally — bus request tags are slot indices), the
// free-slot and pending-prefetch index stacks verbatim (their LIFO order
// steers future slot allocation), and the hierarchy counters. The request
// free-list is deliberately dead state and not saved.
func (h *Hierarchy) SaveState(e *snap.Encoder, s *ReqSet) {
	e.Tag(memStateTag)
	e.Bool(h.l0 != nil)
	if h.l0 != nil {
		h.l0.SaveState(e)
	}
	h.l1i.SaveState(e)
	h.l1d.SaveState(e)
	h.l2.SaveState(e)
	h.arb.SaveState(e)
	e.Int(len(h.slots))
	for _, r := range h.slots {
		s.SaveID(e, r)
	}
	e.Int(len(h.freeSlots))
	for _, v := range h.freeSlots {
		e.U32(v)
	}
	e.Int(len(h.pfPending))
	for _, v := range h.pfPending {
		e.U32(v)
	}
	e.U64(h.l2IAccesses)
	e.U64(h.l2IMisses)
	e.U64(h.memIAccesses)
	e.U64(h.busConflictCycles)
}

// LoadState restores state saved by SaveState into a hierarchy built from
// the same configuration.
func (h *Hierarchy) LoadState(d *snap.Decoder, s *ReqSet) {
	d.Tag(memStateTag)
	hasL0 := d.Bool()
	if d.Err() != nil {
		return
	}
	if hasL0 != (h.l0 != nil) {
		d.Failf("memory: L0 presence mismatch: snapshot %v, hierarchy %v", hasL0, h.l0 != nil)
		return
	}
	if h.l0 != nil {
		h.l0.LoadState(d)
	}
	h.l1i.LoadState(d)
	h.l1d.LoadState(d)
	h.l2.LoadState(d)
	h.arb.LoadState(d)
	n := d.Count(maxLiveRequests)
	h.slots = h.slots[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		h.slots = append(h.slots, s.LoadID(d))
	}
	n = d.Count(maxLiveRequests)
	h.freeSlots = h.freeSlots[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		h.freeSlots = append(h.freeSlots, d.U32())
	}
	n = d.Count(maxLiveRequests)
	h.pfPending = h.pfPending[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		h.pfPending = append(h.pfPending, d.U32())
	}
	h.l2IAccesses = d.U64()
	h.l2IMisses = d.U64()
	h.memIAccesses = d.U64()
	h.busConflictCycles = d.U64()
	h.checkSlots(d)
}

// checkSlots rejects slot bookkeeping that enqueueBus, Tick and
// untrackPrefetch cannot produce: every slot is live or on the free list,
// exactly once; the bus queues hold exactly the live slots, each once and in
// its kind's class; and pfPending lists each waiting prefetch at the index
// its pfIdx records. Such state would later index out of range, hand one tag
// to two requests, or leave a request waiting for a grant that never comes.
func (h *Hierarchy) checkSlots(d *snap.Decoder) {
	if d.Err() != nil {
		return
	}
	free := make([]bool, len(h.slots))
	queued := make([]bool, len(h.slots))
	for _, q := range h.arb.Queued(nil) {
		switch {
		case q.Tag >= uint64(len(h.slots)):
			d.Failf("memory: bus queues tag %d outside a slot table of %d", q.Tag, len(h.slots))
		case h.slots[q.Tag] == nil:
			d.Failf("memory: bus queues tag %d, an empty slot", q.Tag)
		case queued[q.Tag]:
			d.Failf("memory: bus queues tag %d twice", q.Tag)
		case busClass[h.slots[q.Tag].Kind] != q.From:
			d.Failf("memory: bus queues the %v request in slot %d as %v", h.slots[q.Tag].Kind, q.Tag, q.From)
		default:
			queued[q.Tag] = true
			continue
		}
		return
	}
	for _, tag := range h.freeSlots {
		switch {
		case int(tag) >= len(h.slots):
			d.Failf("memory: free slot tag %d outside a slot table of %d", tag, len(h.slots))
		case h.slots[tag] != nil:
			d.Failf("memory: free slot tag %d names a live request", tag)
		case free[tag]:
			d.Failf("memory: free slot tag %d listed twice", tag)
		default:
			free[tag] = true
			continue
		}
		return
	}
	for i, tag := range h.pfPending {
		switch {
		case int(tag) >= len(h.slots):
			d.Failf("memory: pending prefetch tag %d outside a slot table of %d", tag, len(h.slots))
		case h.slots[tag] == nil || h.slots[tag].Kind != KindIPrefetch:
			d.Failf("memory: pending prefetch tag %d names no waiting prefetch", tag)
		case h.slots[tag].pfIdx != int32(i):
			d.Failf("memory: pending prefetch %d (tag %d) records index %d", i, tag, h.slots[tag].pfIdx)
		default:
			continue
		}
		return
	}
	for tag, r := range h.slots {
		switch {
		case r == nil && !free[tag]:
			d.Failf("memory: empty slot %d missing from the free list", tag)
		case r != nil && !queued[tag]:
			d.Failf("memory: live slot %d is not queued on the bus", tag)
		case r != nil && r.Kind == KindIPrefetch &&
			(r.pfIdx < 0 || int(r.pfIdx) >= len(h.pfPending) || h.pfPending[r.pfIdx] != uint32(tag)):
			d.Failf("memory: waiting prefetch in slot %d not pending at its index %d", tag, r.pfIdx)
		default:
			continue
		}
		return
	}
}
