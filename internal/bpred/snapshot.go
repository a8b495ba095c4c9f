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

func saveEntries(e *snap.Encoder, tab []entry) {
	e.Int(len(tab))
	for i := range tab {
		en := &tab[i]
		e.Bool(en.valid)
		e.U64(uint64(en.tag))
		e.Int(en.numInsts)
		e.U64(uint64(en.next))
		e.U8(uint8(en.end))
		e.U8(en.conf)
	}
}

// loadEntries restores a table saved by saveEntries, latching an error on
// an entry the predictor can never produce: a confidence above the 2-bit
// counter's 3, an end class past EndReturn, or a negative stream length.
func loadEntries(d *snap.Decoder, tab []entry, name string) {
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(tab) {
		d.Failf("bpred: %s table size mismatch: snapshot %d, predictor %d", name, n, len(tab))
		return
	}
	for i := range tab {
		en := &tab[i]
		en.valid = d.Bool()
		en.tag = isa.Addr(d.U64())
		en.numInsts = d.Int()
		en.next = isa.Addr(d.U64())
		en.end = EndClass(d.U8())
		en.conf = d.U8()
		if d.Err() != nil {
			return
		}
		if en.conf > 3 || en.end > EndReturn || en.numInsts < 0 {
			d.Failf("bpred: %s entry %d is impossible: conf %d, end %d, numInsts %d",
				name, i, en.conf, uint8(en.end), en.numInsts)
			return
		}
	}
}

// SaveState serialises the predictor: both stream tables, the RAS, the
// speculative global history and the counters.
func (p *Predictor) SaveState(e *snap.Encoder) {
	e.Tag(stateTag)
	saveEntries(e, p.first)
	saveEntries(e, p.second)
	SaveRASSnapshot(e, p.ras.Snapshot())
	e.U64(p.history)
	e.U64(p.predictions)
	e.U64(p.firstHits)
	e.U64(p.secondHits)
	e.U64(p.fallbacks)
	e.U64(p.trainings)
}

// LoadState restores state saved by SaveState into a predictor built from
// the same configuration.
func (p *Predictor) LoadState(d *snap.Decoder) {
	d.Tag(stateTag)
	loadEntries(d, p.first, "first-level")
	loadEntries(d, p.second, "second-level")
	var ras RASSnapshot
	LoadRASSnapshot(d, &ras)
	if d.Err() != nil {
		return
	}
	if len(ras.entries) != len(p.ras.entries) {
		d.Failf("bpred: RAS depth mismatch: snapshot %d, predictor %d", len(ras.entries), len(p.ras.entries))
		return
	}
	p.ras.Restore(ras)
	p.history = d.U64()
	p.predictions = d.U64()
	p.firstHits = d.U64()
	p.secondHits = d.U64()
	p.fallbacks = d.U64()
	p.trainings = d.U64()
}

// SaveRASSnapshot serialises an opaque RAS snapshot (the core checkpoints
// two of them for misprediction recovery).
func SaveRASSnapshot(e *snap.Encoder, s RASSnapshot) {
	e.Tag(rasTag)
	e.Int(len(s.entries))
	e.Int(s.top)
	for _, a := range s.entries {
		e.U64(uint64(a))
	}
}

// LoadRASSnapshot restores a RAS snapshot into dst, reusing dst's storage
// when its capacity matches (mirroring RAS.SaveInto).
func LoadRASSnapshot(d *snap.Decoder, dst *RASSnapshot) {
	d.Tag(rasTag)
	n := d.Count(maxRAS)
	top := d.Int()
	if d.Err() != nil {
		return
	}
	if top < 0 || top > n {
		d.Failf("bpred: RAS top %d outside [0, %d]", top, n)
		return
	}
	if len(dst.entries) != n {
		dst.entries = make([]isa.Addr, n)
	}
	dst.top = top
	for i := range dst.entries {
		dst.entries[i] = isa.Addr(d.U64())
	}
}
