package prefetch

import (
	"clgp/internal/memory"
	"clgp/internal/snap"
)

// Section tags for the engine snapshot records.
const (
	commonTag uint32 = 0x4D435046 // "FPCM"
	candTag   uint32 = 0x44435046 // "FPCD"
	cursTag   uint32 = 0x52435046 // "FPCR"
	engineTag uint32 = 0x4E455046 // "FPEN"
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

// walk walks the shared engine state: the prefetch-source distribution, the
// issue counter and the in-flight fills (by request ID). Loading rejects a
// fill that references no request.
func (c *common) walk(w *snap.Walker, s *memory.ReqSet) {
	w.Tag(commonTag)
	w.U64s(c.prefetchSources[:])
	w.U64(&c.issued)
	snap.Slice(w, &c.inflight, maxInflight, func(o *outstanding) {
		snap.Word(w, &o.line)
		s.WalkID(w, &o.req)
	})
	if !w.Loading() || w.Err() != nil {
		return
	}
	for i, o := range c.inflight {
		if o.req == nil {
			w.Failf("prefetch: in-flight fill %d references no request", i)
			return
		}
	}
}

// walk walks the candidate ring in FIFO order; loading re-bases it at zero.
func (r *candRing) walk(w *snap.Walker) {
	w.Tag(candTag)
	n := r.n
	w.Count(&n, maxCandidateQueue)
	if w.Loading() {
		r.head, r.n = 0, n
	}
	for i := 0; i < n; i++ {
		snap.Word(w, &r.buf[(r.head+i)%maxCandidateQueue])
	}
}

// walk walks the cursor's FTQ and the head-block progress.
func (bc *blockCursor) walk(w *snap.Walker) {
	w.Tag(cursTag)
	bc.q.Walk(w)
	w.Int(&bc.consumed)
	if w.Loading() && w.Err() == nil && bc.consumed < 0 {
		w.Failf("prefetch: negative cursor progress %d", bc.consumed)
	}
}

// walkHeader walks the header that frames each engine's record with its
// name, so restoring a snapshot into an engine of a different scheme fails
// loudly.
func walkHeader(w *snap.Walker, name string) {
	w.Tag(engineTag)
	got := name
	w.String(&got)
	if w.Err() == nil && got != name {
		w.Failf("prefetch: engine mismatch: snapshot %q, engine %q", got, name)
	}
}

// Walk implements Engine: shared state, the CLTQ and the prestage buffer.
func (e *CLGPEngine) Walk(w *snap.Walker, s *memory.ReqSet) {
	walkHeader(w, e.Name())
	e.common.walk(w, s)
	e.q.Walk(w)
	e.buf.Walk(w)
}

// Walk implements Engine: shared state, the FTQ cursor, the candidate ring
// and the prefetch buffer.
func (e *filterEngine) Walk(w *snap.Walker, s *memory.ReqSet) {
	walkHeader(w, e.name)
	e.common.walk(w, s)
	e.blockCursor.walk(w)
	e.candidates.walk(w)
	e.buf.Walk(w)
}

// AddLiveRequests implements Engine; the baseline holds no requests.
func (e *NoneEngine) AddLiveRequests(s *memory.ReqSet) {}

// Walk implements Engine: only the FTQ cursor carries state.
func (e *NoneEngine) Walk(w *snap.Walker, s *memory.ReqSet) {
	walkHeader(w, e.Name())
	e.blockCursor.walk(w)
}
