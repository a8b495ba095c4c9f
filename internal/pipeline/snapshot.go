package pipeline

import (
	"cmp"
	"slices"

	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/snap"
)

// Section tags for the back-end snapshot records.
const (
	backendTag uint32 = 0x4B424550 // "PEBK"
	instTag    uint32 = 0x4E494550 // "PEIN"
)

// InstCodec resolves static-instruction pointers across a snapshot boundary.
// The core implements it: it owns the program dictionary (PC → canonical
// *StaticInst) and the shared synthetic nop used for off-image wrong-path
// fetches, neither of which this package can see.
type InstCodec interface {
	// WalkStatic walks a reference to *s: nil, the synthetic nop, or an
	// image instruction identified by PC.
	WalkStatic(w *snap.Walker, s **isa.StaticInst)
}

// WalkInst walks one DynInst in full: identity, flags, execution state and
// the dependence references. Loading into d (freshly zeroed) leaves every
// dependence reference detached, which depRef.done treats identically to a
// departed producer; it is meant for instructions not yet dispatched, which
// carry no dependence links and no memory request. Loading rejects one that
// holds a request: no owner would register it, so the next save would fail.
func WalkInst(w *snap.Walker, d *DynInst, s *memory.ReqSet, codec InstCodec) {
	walkInst(w, d, s, codec, nil)
	if w.Loading() && w.Err() == nil && d.memReq != nil {
		w.Failf("pipeline: undispatched instruction %d holds a memory request", d.Seq)
	}
}

// walkInst is WalkInst that, loading, appends each dependence reference
// that had a producer to fixes, for the back-end to re-bind once every RUU
// entry exists.
func walkInst(w *snap.Walker, d *DynInst, s *memory.ReqSet, codec InstCodec, fixes []*depRef) []*depRef {
	w.Tag(instTag)
	codec.WalkStatic(w, &d.Static)
	w.U64(&d.Seq)
	w.Bool(&d.WrongPath)
	w.Bool(&d.MispredictedBranch)
	snap.Word(w, &d.EffAddr)
	w.U64(&d.FetchedAt)
	snap.Byte(w, &d.state)
	if w.Err() == nil && d.state > stateCompleted {
		w.Failf("pipeline: invalid instruction state %d", d.state)
		return fixes
	}
	w.U64(&d.issueAt)
	w.U64(&d.completAt)
	s.WalkID(w, &d.memReq)
	for i := range d.deps {
		fixes = walkDep(w, &d.deps[i], fixes)
	}
	return fixes
}

// walkDep walks a dependence or scoreboard reference as "had a producer"
// (d != nil) and the producer's sequence number. Loading leaves the
// reference detached and, when it had a producer, appends it to fixes:
// relink re-binds it only to a producer still in the RUU. So a producer
// that had already left the RUU by the snapshot point saves as had,
// restores detached, and saves again as not had.
func walkDep(w *snap.Walker, r *depRef, fixes []*depRef) []*depRef {
	had := r.d != nil
	w.Bool(&had)
	w.U64(&r.seq)
	if w.Loading() {
		r.d = nil
		if had {
			fixes = append(fixes, r)
		}
	}
	return fixes
}

// AddLiveRequests registers the in-flight data-cache requests held by RUU
// entries with the request identity table.
func (b *Backend) AddLiveRequests(s *memory.ReqSet) {
	for i := 0; i < b.ruuN; i++ {
		s.Add(b.ruuAt(i).memReq)
	}
}

// Walk walks the back-end: the RUU in program order, the cached event
// horizon, the register scoreboard (as producer sequence numbers) and the
// counters. Loading into a back-end built from the same configuration draws
// RUU entries from the attached pool (fresh allocations when the pool is
// empty) and re-bases the ring at zero. The scheduler indices are rebuilt
// from the loaded RUU (see rebuildIndices), so the format carries none of
// them, and the dependence and scoreboard references are re-bound to the
// loaded producers by sequence number (see relink).
func (b *Backend) Walk(w *snap.Walker, s *memory.ReqSet, codec InstCodec) {
	w.Tag(backendTag)
	n := b.ruuN
	w.Count(&n, b.cfg.RUUSize)
	if w.Err() != nil {
		return
	}
	if w.Loading() {
		clear(b.ruu)
		b.ruuHead, b.ruuN = 0, n
		for i := 0; i < n; i++ {
			if b.pool != nil {
				b.ruu[i] = b.pool.Get()
			} else {
				b.ruu[i] = &DynInst{}
			}
		}
	}
	var fixes []*depRef
	for i := 0; i < n; i++ {
		fixes = walkInst(w, b.ruuAt(i), s, codec, fixes)
	}
	w.U64(&b.nextEv)
	w.Bool(&b.readyNow)
	for r := range b.regProducer {
		fixes = walkDep(w, &b.regProducer[r], fixes)
	}
	w.U64(&b.committed)
	w.U64(&b.wrongSquash)
	w.U64(&b.loadsExec)
	w.U64(&b.storesExec)
	w.U64(&b.resolvedMisp)
	if !w.Loading() || w.Err() != nil {
		return
	}
	b.rebuildIndices(w)
	if w.Err() == nil {
		b.relink(fixes)
	}
}

// relink re-binds each loaded reference in fixes to the RUU entry with its
// sequence number. A sequence no longer in the RUU stays detached, which
// depRef.done already treats as a departed (completed or squashed)
// producer. rebuildIndices has checked that the loaded RUU's sequence
// numbers strictly increase.
func (b *Backend) relink(fixes []*depRef) {
	ruu := b.ruu[:b.ruuN]
	for _, r := range fixes {
		if i, ok := slices.BinarySearchFunc(ruu, r.seq, func(d *DynInst, seq uint64) int {
			return cmp.Compare(d.Seq, seq)
		}); ok {
			r.d = ruu[i]
		}
	}
}

// rebuildIndices derives the scheduler indices from the restored RUU:
// dispatched entries re-enter the issue-delay FIFO in RUU order (one past its
// delay is popped, and made ready or parked, by the next tick), issued ones
// join the exec list at completAt, and memory-waiting ones at 0, so the next
// tick polls their requests. The indices rely on two orders a saved RUU
// always has — Seq strictly increasing and dispatched entries' issueAt
// non-decreasing — and on every memory-waiting entry holding its request,
// so a snapshot violating any of these is rejected.
func (b *Backend) rebuildIndices(w *snap.Walker) {
	b.delayHead, b.delayN = 0, 0
	b.ready = b.ready[:0]
	b.exec = b.exec[:0]
	for i := 0; i < b.ruuN; i++ {
		di := b.ruu[i]
		if i > 0 && di.Seq <= b.ruu[i-1].Seq {
			w.Failf("pipeline: RUU sequence %d follows %d; restored entries must be in strictly increasing order", di.Seq, b.ruu[i-1].Seq)
			return
		}
		switch di.state {
		case stateDispatched:
			if b.delayN > 0 && di.issueAt < b.delay[b.delayN-1].at {
				w.Failf("pipeline: dispatched entry %d issues at %d, before the older entry's %d", di.Seq, di.issueAt, b.delay[b.delayN-1].at)
				return
			}
			b.delay[b.delayN] = timedInst{at: di.issueAt, d: di}
			b.delayN++
		case stateIssued:
			b.exec = append(b.exec, timedInst{at: di.completAt, d: di})
		case stateWaitingMem:
			if di.memReq == nil {
				w.Failf("pipeline: memory-waiting entry %d has no request", di.Seq)
				return
			}
			b.exec = append(b.exec, timedInst{at: 0, d: di})
		}
	}
}
