package bpred

import (
	"clgp/internal/isa"
	"clgp/internal/snap"
)

// stateTag opens the predictor section of a snapshot payload ("BPRD").
const stateTag uint32 = 0x44525042

// rasTag opens a RAS-snapshot record ("RASS").
const rasTag uint32 = 0x53534152

// maxRAS bounds a decoded RAS depth.
const maxRAS = 1 << 16

// walkEntries walks a stream table, whose loaded size must match tab's.
func walkEntries(w *snap.Walker, tab []entry, name string) {
	n := len(tab)
	w.Int(&n)
	if w.Err() != nil {
		return
	}
	if n != len(tab) {
		w.Failf("bpred: %s table size mismatch: snapshot %d, predictor %d", name, n, len(tab))
		return
	}
	for i := range tab {
		en := &tab[i]
		w.Bool(&en.valid)
		snap.Word(w, &en.tag)
		w.Int(&en.numInsts)
		snap.Word(w, &en.next)
		snap.Byte(w, &en.end)
		w.U8(&en.conf)
	}
}

// checkEntries rejects a loaded entry the predictor can never produce: a
// confidence above the 2-bit counter's 3, an end class past EndReturn, or a
// negative stream length.
func checkEntries(w *snap.Walker, tab []entry, name string) {
	for i := range tab {
		en := &tab[i]
		if w.Err() == nil && (en.conf > 3 || en.end > EndReturn || en.numInsts < 0) {
			w.Failf("bpred: %s entry %d is impossible: conf %d, end %d, numInsts %d",
				name, i, en.conf, uint8(en.end), en.numInsts)
			return
		}
	}
}

// Walk walks the predictor: both stream tables, the RAS, the speculative
// global history and the counters. A loaded predictor must match the
// receiving one's table sizes and RAS depth.
func (p *Predictor) Walk(w *snap.Walker) {
	w.Tag(stateTag)
	walkEntries(w, p.first, "first-level")
	walkEntries(w, p.second, "second-level")
	ras := p.ras.Snapshot()
	WalkRASSnapshot(w, &ras)
	if w.Err() != nil {
		return
	}
	if w.Loading() {
		if len(ras.entries) != len(p.ras.entries) {
			w.Failf("bpred: RAS depth mismatch: snapshot %d, predictor %d", len(ras.entries), len(p.ras.entries))
			return
		}
		p.ras.Restore(ras)
	}
	w.U64(&p.history)
	w.U64(&p.predictions)
	w.U64(&p.firstHits)
	w.U64(&p.secondHits)
	w.U64(&p.fallbacks)
	w.U64(&p.trainings)
	if w.Loading() {
		checkEntries(w, p.first, "first-level")
		checkEntries(w, p.second, "second-level")
	}
}

// WalkRASSnapshot walks an opaque RAS snapshot (the core checkpoints one for
// misprediction recovery). Loading reuses s's storage when its depth
// matches (as RAS.SaveInto does).
func WalkRASSnapshot(w *snap.Walker, s *RASSnapshot) {
	w.Tag(rasTag)
	n := len(s.entries)
	w.Count(&n, maxRAS)
	w.Int(&s.top)
	if w.Err() != nil {
		return
	}
	if s.top < 0 || s.top > n {
		w.Failf("bpred: RAS top %d outside [0, %d]", s.top, n)
		return
	}
	if len(s.entries) != n {
		s.entries = make([]isa.Addr, n)
	}
	for i := range s.entries {
		snap.Word(w, &s.entries[i])
	}
}
