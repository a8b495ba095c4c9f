package prefetch

import (
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/snap"
)

// Section tags for the engine snapshot records.
const (
	commonTag uint32 = 0x4D435046 // "PFCM"
	candTag   uint32 = 0x44435046 // "PFCD"
	cursTag   uint32 = 0x52435046 // "PFCR"
	engineTag uint32 = 0x4E455046 // "PFEN"
)

// maxInflight bounds a decoded in-flight prefetch list.
const maxInflight = 1 << 20

// AddLiveRequests implements Engine: it registers the in-flight prefetch
// fills with the request identity table.
func (c *common) AddLiveRequests(s *memory.ReqSet) {
	for _, o := range c.inflight {
		s.Add(o.req)
	}
}

// saveState serialises the shared engine state: the prefetch-source
// distribution, the issue counter and the in-flight fills (by request ID).
func (c *common) saveState(e *snap.Encoder, s *memory.ReqSet) {
	e.Tag(commonTag)
	for i := range c.prefetchSources {
		e.U64(c.prefetchSources[i])
	}
	e.U64(c.issued)
	e.Int(len(c.inflight))
	for _, o := range c.inflight {
		e.U64(uint64(o.line))
		s.SaveID(e, o.req)
	}
}

// loadState restores state saved by saveState.
func (c *common) loadState(d *snap.Decoder, s *memory.ReqSet) {
	d.Tag(commonTag)
	for i := range c.prefetchSources {
		c.prefetchSources[i] = d.U64()
	}
	c.issued = d.U64()
	n := d.Count(maxInflight)
	c.inflight = c.inflight[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		o := outstanding{line: isa.Addr(d.U64()), req: s.LoadID(d)}
		if o.req == nil && d.Err() == nil {
			d.Failf("prefetch: in-flight fill %d references no request", i)
			return
		}
		c.inflight = append(c.inflight, o)
	}
}

// saveState serialises the candidate ring in FIFO order.
func (r *candRing) saveState(e *snap.Encoder) {
	e.Tag(candTag)
	e.Int(r.n)
	for i := 0; i < r.n; i++ {
		e.U64(uint64(r.buf[(r.head+i)%maxCandidateQueue]))
	}
}

// loadState restores the ring, re-based at zero.
func (r *candRing) loadState(d *snap.Decoder) {
	d.Tag(candTag)
	n := d.Count(maxCandidateQueue)
	r.head = 0
	r.n = n
	for i := 0; i < n; i++ {
		r.buf[i] = isa.Addr(d.U64())
	}
}

// saveState serialises the cursor's FTQ and the head-block progress.
func (bc *blockCursor) saveState(e *snap.Encoder) {
	e.Tag(cursTag)
	bc.q.SaveState(e)
	e.Int(bc.consumed)
}

// loadState restores state saved by saveState.
func (bc *blockCursor) loadState(d *snap.Decoder) {
	d.Tag(cursTag)
	bc.q.LoadState(d)
	bc.consumed = d.Int()
	if d.Err() == nil && bc.consumed < 0 {
		d.Failf("prefetch: negative cursor progress %d", bc.consumed)
	}
}

// engineHeader frames each engine's record with its name, so restoring a
// snapshot into an engine of a different scheme fails loudly.
func engineHeader(e *snap.Encoder, name string) {
	e.Tag(engineTag)
	e.String(name)
}

func checkEngineHeader(d *snap.Decoder, name string) {
	d.Tag(engineTag)
	got := d.String()
	if d.Err() == nil && got != name {
		d.Failf("prefetch: engine mismatch: snapshot %q, engine %q", got, name)
	}
}

// SaveState implements Engine: shared state, the CLTQ and the prestage
// buffer.
func (e *CLGPEngine) SaveState(enc *snap.Encoder, s *memory.ReqSet) {
	engineHeader(enc, e.Name())
	e.saveState(enc, s)
	e.q.SaveState(enc)
	e.buf.SaveState(enc)
}

// LoadState implements Engine.
func (e *CLGPEngine) LoadState(d *snap.Decoder, s *memory.ReqSet) {
	checkEngineHeader(d, e.Name())
	e.loadState(d, s)
	e.q.LoadState(d)
	e.buf.LoadState(d)
}

// SaveState implements Engine: shared state, the FTQ cursor, the candidate
// ring and the prefetch buffer.
func (e *filterEngine) SaveState(enc *snap.Encoder, s *memory.ReqSet) {
	engineHeader(enc, e.name)
	e.common.saveState(enc, s)
	e.blockCursor.saveState(enc)
	e.candidates.saveState(enc)
	e.buf.SaveState(enc)
}

// LoadState implements Engine.
func (e *filterEngine) LoadState(d *snap.Decoder, s *memory.ReqSet) {
	checkEngineHeader(d, e.name)
	e.common.loadState(d, s)
	e.blockCursor.loadState(d)
	e.candidates.loadState(d)
	e.buf.LoadState(d)
}

// AddLiveRequests implements Engine; the baseline holds no requests.
func (e *NoneEngine) AddLiveRequests(s *memory.ReqSet) {}

// SaveState implements Engine: only the FTQ cursor carries state.
func (e *NoneEngine) SaveState(enc *snap.Encoder, s *memory.ReqSet) {
	engineHeader(enc, e.Name())
	e.blockCursor.saveState(enc)
}

// LoadState implements Engine.
func (e *NoneEngine) LoadState(d *snap.Decoder, s *memory.ReqSet) {
	checkEngineHeader(d, e.Name())
	e.blockCursor.loadState(d)
}
