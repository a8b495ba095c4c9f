package pipeline

import (
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
	// SaveStatic writes a reference to s (nil, the synthetic nop, or an
	// image instruction identified by PC).
	SaveStatic(e *snap.Encoder, s *isa.StaticInst)
	// LoadStatic resolves a reference written by SaveStatic.
	LoadStatic(d *snap.Decoder) *isa.StaticInst
}

// SaveInst serialises one DynInst in full: identity, flags, execution state
// and the dependence references (producer pointers collapse to sequence
// numbers — restore re-binds them to the live producer still in the RUU, or
// leaves them detached, which depRef.done treats identically to a departed
// producer).
func SaveInst(e *snap.Encoder, d *DynInst, s *memory.ReqSet, codec InstCodec) {
	e.Tag(instTag)
	codec.SaveStatic(e, d.Static)
	e.U64(d.Seq)
	e.Bool(d.WrongPath)
	e.Bool(d.MispredictedBranch)
	e.U64(uint64(d.EffAddr))
	e.U64(d.FetchedAt)
	e.U8(uint8(d.state))
	e.U64(d.issueAt)
	e.U64(d.completAt)
	s.SaveID(e, d.memReq)
	for i := range d.deps {
		e.Bool(d.deps[i].d != nil)
		e.U64(d.deps[i].seq)
	}
}

// depFix is a deferred dependence re-bind: restored instructions are linked
// after the whole RUU has been decoded, since a producer may sit at a higher
// ring index than its consumer's decode position never does — but scanning
// once at the end is simpler and the RUU is at most a few dozen entries.
type depFix struct {
	d    *DynInst
	slot int
	seq  uint64
}

// LoadInst restores one DynInst saved by SaveInst into d (freshly zeroed).
// Dependence references are returned as fixups for the caller to resolve
// once every instruction exists.
func LoadInst(dec *snap.Decoder, d *DynInst, s *memory.ReqSet, codec InstCodec) []depFix {
	dec.Tag(instTag)
	d.Static = codec.LoadStatic(dec)
	d.Seq = dec.U64()
	d.WrongPath = dec.Bool()
	d.MispredictedBranch = dec.Bool()
	d.EffAddr = isa.Addr(dec.U64())
	d.FetchedAt = dec.U64()
	st := dec.U8()
	if dec.Err() == nil && st > uint8(stateCompleted) {
		dec.Failf("pipeline: invalid instruction state %d", st)
		return nil
	}
	d.state = instState(st)
	d.issueAt = dec.U64()
	d.completAt = dec.U64()
	d.memReq = s.LoadID(dec)
	var fixes []depFix
	for i := range d.deps {
		had := dec.Bool()
		seq := dec.U64()
		d.deps[i] = depRef{seq: seq}
		if had {
			fixes = append(fixes, depFix{d: d, slot: i, seq: seq})
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

// SaveState serialises the back-end: the RUU in program order, the cached
// event horizon, the register scoreboard (as producer sequence numbers) and
// the counters.
func (b *Backend) SaveState(e *snap.Encoder, s *memory.ReqSet, codec InstCodec) {
	e.Tag(backendTag)
	e.Int(b.ruuN)
	for i := 0; i < b.ruuN; i++ {
		SaveInst(e, b.ruuAt(i), s, codec)
	}
	e.U64(b.nextEv)
	e.Bool(b.readyNow)
	for r := range b.regProducer {
		e.Bool(b.regProducer[r].d != nil)
		e.U64(b.regProducer[r].seq)
	}
	e.U64(b.committed)
	e.U64(b.wrongSquash)
	e.U64(b.loadsExec)
	e.U64(b.storesExec)
	e.U64(b.resolvedMisp)
}

// LoadState restores state saved by SaveState into a back-end built from the
// same configuration. RUU entries are drawn from the attached pool (fresh
// allocations when the pool is empty); the ring is re-based at zero.
// Dependence and scoreboard references are re-bound to the restored producer
// instructions by sequence number — a sequence no longer in the RUU restores
// as a detached reference, which depRef.done already treats as a departed
// (completed or squashed) producer. The scheduler indices are rebuilt from
// the restored RUU (see rebuildIndices), so the format carries none of them.
func (b *Backend) LoadState(d *snap.Decoder, s *memory.ReqSet, codec InstCodec) {
	d.Tag(backendTag)
	n := d.Count(b.cfg.RUUSize)
	if d.Err() != nil {
		return
	}
	for i := range b.ruu {
		b.ruu[i] = nil
	}
	b.ruuHead = 0
	b.ruuN = n
	var fixes []depFix
	bySeq := make(map[uint64]*DynInst, n)
	for i := 0; i < n; i++ {
		var di *DynInst
		if b.pool != nil {
			di = b.pool.Get()
		} else {
			di = &DynInst{}
		}
		fixes = append(fixes, LoadInst(d, di, s, codec)...)
		b.ruu[i] = di
		bySeq[di.Seq] = di
	}
	if d.Err() != nil {
		return
	}
	b.rebuildIndices(d)
	if d.Err() != nil {
		return
	}
	for _, f := range fixes {
		if p, ok := bySeq[f.seq]; ok {
			f.d.deps[f.slot] = depRef{d: p, seq: f.seq}
		}
	}
	b.nextEv = d.U64()
	b.readyNow = d.Bool()
	for r := range b.regProducer {
		had := d.Bool()
		seq := d.U64()
		b.regProducer[r] = depRef{seq: seq}
		if had {
			if p, ok := bySeq[seq]; ok {
				b.regProducer[r] = depRef{d: p, seq: seq}
			}
		}
	}
	b.committed = d.U64()
	b.wrongSquash = d.U64()
	b.loadsExec = d.U64()
	b.storesExec = d.U64()
	b.resolvedMisp = d.U64()
}

// rebuildIndices derives the scheduler indices from the restored RUU:
// dispatched entries re-enter the issue-delay FIFO in RUU order (one past its
// delay is popped, and made ready or parked, by the next tick), issued ones
// join the exec list at completAt, and memory-waiting ones at 0, so the next
// tick polls their requests. The indices rely on two orders a saved RUU
// always has — Seq strictly increasing and dispatched entries' issueAt
// non-decreasing — and on every memory-waiting entry holding its request,
// so a snapshot violating any of these is rejected.
func (b *Backend) rebuildIndices(d *snap.Decoder) {
	b.delayHead, b.delayN = 0, 0
	b.ready = b.ready[:0]
	b.exec = b.exec[:0]
	for i := 0; i < b.ruuN; i++ {
		di := b.ruu[i]
		if i > 0 && di.Seq <= b.ruu[i-1].Seq {
			d.Failf("pipeline: RUU sequence %d follows %d; restored entries must be in strictly increasing order", di.Seq, b.ruu[i-1].Seq)
			return
		}
		switch di.state {
		case stateDispatched:
			if b.delayN > 0 && di.issueAt < b.delay[b.delayN-1].at {
				d.Failf("pipeline: dispatched entry %d issues at %d, before the older entry's %d", di.Seq, di.issueAt, b.delay[b.delayN-1].at)
				return
			}
			b.delay[b.delayN] = timedInst{at: di.issueAt, d: di}
			b.delayN++
		case stateIssued:
			b.exec = append(b.exec, timedInst{at: di.completAt, d: di})
		case stateWaitingMem:
			if di.memReq == nil {
				d.Failf("pipeline: memory-waiting entry %d has no request", di.Seq)
				return
			}
			b.exec = append(b.exec, timedInst{at: 0, d: di})
		}
	}
}
