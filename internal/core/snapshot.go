package core

import (
	"fmt"
	"hash/fnv"

	"clgp/internal/bpred"
	"clgp/internal/freelist"
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/pipeline"
	"clgp/internal/snap"
)

// coreTag opens the engine section of a snapshot payload ("CORE").
const coreTag uint32 = 0x45524F43

// WarmKey hashes the configuration fields that determine warm-up state: two
// configurations with equal keys reach bit-identical microarchitectural state
// after the same number of committed instructions, so they can share a
// warm-state snapshot. Name (a label) and NoSkip (the clock mode, which
// never changes results) are deliberately excluded — a sweep that varies
// only those axes pays warm-up once.
func (c Config) WarmKey() uint64 {
	if n, err := c.normalise(); err == nil {
		c = n
	}
	h := fnv.New64a()
	// The fixed Table 2 parameters, and the L1 I-cache's pipelining (always
	// off), stay in the hashed text so keys, and the snapshot stores
	// addressed by them, match those of earlier builds.
	fmt.Fprintf(h, "tech=%d l1i=%d l1ipipe=false l0=%t ideal=%t eng=%d pb=%d fw=%d rp=%d be=%+v bp=%+v",
		int(c.Tech), c.L1ISize, c.UseL0, c.IdealICache,
		int(c.Engine), c.PreBufferEntries, fetchWidth, redirectPenalty,
		pipeline.DefaultConfig(), bpred.DefaultConfig())
	return h.Sum64()
}

// WalkStatic implements pipeline.InstCodec: a static-instruction pointer
// travels as nil (0), the engine's synthetic off-image nop (2), or an image
// instruction identified by its PC (1), which loading resolves through the
// engine's dictionary.
func (e *Engine) WalkStatic(w *snap.Walker, s **isa.StaticInst) {
	marker, pc := uint8(1), isa.Addr(0)
	switch {
	case *s == nil:
		marker = 0
	case *s == &e.nop:
		marker = 2
	default:
		pc = (*s).PC
	}
	w.U8(&marker)
	if marker == 1 {
		snap.Word(w, &pc)
	}
	if !w.Loading() {
		return
	}
	switch marker {
	case 0:
		*s = nil
	case 2:
		*s = &e.nop
	case 1:
		*s = e.dict.Inst(pc)
		if *s == nil && w.Err() == nil {
			w.Failf("core: static instruction at %#x not in the dictionary", pc)
		}
	default:
		*s = nil
		if w.Err() == nil {
			w.Failf("core: invalid static instruction marker %d", marker)
		}
	}
}

// Snapshot serialises the complete mutable state of the engine — every piece
// of architectural and microarchitectural state the cycle loop carries — into
// a sealed snapshot container (see internal/snap and its FORMAT.md). The
// workload name and fingerprint identify the record stream the engine is
// simulating; Restore refuses a snapshot whose identity does not match.
//
// The clock-mode diagnostic counters (SkippedCycles, fast-forward jumps)
// are deliberately not captured: they are
// telemetry, excluded from stats.Results.WithoutTelemetry, and saving them
// would make the snapshot bytes depend on the clock mode of the recording
// run. Everything that feeds the architectural results is captured exactly,
// which is what makes a restored run bit-identical to a straight-through one.
func (e *Engine) Snapshot(workload string, fingerprint uint64) ([]byte, error) {
	if e.err != nil {
		return nil, fmt.Errorf("core %s: cannot snapshot a failed engine: %w", e.cfg.Name, e.err)
	}
	if e.done {
		return nil, fmt.Errorf("core %s: cannot snapshot a finished engine", e.cfg.Name)
	}

	// Build the request identity table: every owner of an in-flight memory
	// request registers its pointers, so shared requests (e.g. a demand fetch
	// also tracked in a hierarchy slot) serialise once and re-link on restore.
	rs := memory.NewReqSet()
	e.mem.AddLiveRequests(rs)
	rs.Add(e.fetchReq)
	for _, r := range e.drain {
		rs.Add(r)
	}
	e.backend.AddLiveRequests(rs)
	e.eng.AddLiveRequests(rs)

	meta := snap.Meta{
		Workload:    workload,
		Fingerprint: fingerprint,
		WarmKey:     e.cfg.WarmKey(),
		TraceLen:    int64(e.trLen),
		Committed:   e.lastCommitted,
		Cycle:       e.cycle,
	}
	var err error
	data := snap.Seal(meta, func(enc *snap.Encoder) {
		w := snap.Saver(enc)
		e.walk(w, rs)
		err = w.Err()
	})
	if err != nil {
		freelist.Artifacts.Put(data)
		return nil, fmt.Errorf("core %s: %w", e.cfg.Name, err)
	}
	return data, nil
}

// walk walks the engine's state in payload order (see FORMAT.md): the
// request table, the engine's own state, then each component's section.
func (e *Engine) walk(w *snap.Walker, rs *memory.ReqSet) {
	w.Tag(coreTag)
	rs.Walk(w)

	// Engine scalars.
	w.U64(&e.cycle)
	w.U64(&e.seq)
	w.U64(&e.nextSeqID)
	w.U64(&e.lastCommitted)
	w.U64(&e.pfCancelled)
	w.Int(&e.predCursor)
	w.Bool(&e.wrongPath)
	snap.Word(w, &e.wrongPC)
	w.U64(&e.predStallUntil)
	w.Bool(&e.recoveryValid)
	w.U64(&e.recoverHistory)
	snap.Byte(w, &e.recoverEnd)
	snap.Word(w, &e.recoverRet)
	// rasScratch is write-before-read scratch storage; only the recovery
	// checkpoint itself needs to travel.
	bpred.WalkRASSnapshot(w, &e.recoverRAS)

	// Block bookkeeping ring, verbatim.
	n := len(e.blockMeta)
	w.Count(&n, blockMetaRing)
	if w.Err() == nil && n != blockMetaRing {
		w.Failf("core: block meta ring size %d, want %d", n, blockMetaRing)
	}
	if w.Err() != nil {
		return
	}
	for i := range e.blockMeta {
		m := &e.blockMeta[i]
		w.U64(&m.seqID)
		w.Int(&m.traceBase)
		w.Int(&m.numInsts)
		w.Int(&m.delivered)
		w.Bool(&m.mispred)
	}

	// Fetch stage.
	w.Bool(&e.fetchActive)
	rs.WalkID(w, &e.fetchReq)
	w.U64(&e.fetchReadyAt)
	fr := &e.fetchFR
	snap.Word(w, &fr.Line)
	snap.Word(w, &fr.Start)
	w.Int(&fr.NumInsts)
	snap.Word(w, &fr.Next)
	w.Bool(&fr.LastOfBlock)
	w.Bool(&fr.EndsInBranch)
	w.Bool(&fr.WrongPath)
	w.U64(&fr.BlockID)

	// Abandoned wrong-path demand fetches still draining.
	snap.Slice(w, &e.drain, 1<<20, func(r **memory.Request) { rs.WalkID(w, r) })

	// Dispatch queue, in logical (fetch) order; loading re-bases it at zero.
	dqN := e.dqN
	w.Count(&dqN, dispatchQueueCap)
	if w.Err() != nil {
		return
	}
	if w.Loading() {
		clear(e.dq)
		e.dqHead, e.dqN = 0, dqN
		for i := 0; i < dqN; i++ {
			e.dq[i] = e.pool.Get()
		}
	}
	for i := 0; i < dqN; i++ {
		pipeline.WalkInst(w, e.dq[(e.dqHead+i)%dispatchQueueCap], rs, e)
	}

	// Statistics that feed stats.Results.
	w.U64(&e.fetched)
	w.U64(&e.wrongPathFetched)
	w.U64(&e.branches)
	w.U64(&e.mispredicts)
	w.U64(&e.detectedMisp)
	w.U64s(e.fetchSources[:])
	w.U64s(e.accounts[:])
	if w.Loading() {
		e.checkRestored(w)
	}

	// Component sections.
	e.mem.Walk(w, rs)
	e.backend.Walk(w, rs, e)
	e.eng.Walk(w, rs)
	e.pred.Walk(w)
}

// checkRestored rejects loaded engine state no run reaches: a prediction
// cursor behind the commit frontier or past the trace, a drain entry with
// no request, a fetch line longer than a line holds, or a dispatch queue
// too full for the line in flight (fetchStage starts a line only with a
// full line of headroom, and only dispatch moves the queue while the line
// is in flight).
func (e *Engine) checkRestored(w *snap.Walker) {
	if w.Err() != nil {
		return
	}
	if e.predCursor < int(e.lastCommitted) || e.predCursor > e.trLen {
		w.Failf("core: prediction cursor %d outside [%d, %d]", e.predCursor, e.lastCommitted, e.trLen)
		return
	}
	for i, r := range e.drain {
		if r == nil {
			w.Failf("core: drain entry %d references no request", i)
			return
		}
	}
	if e.fetchFR.NumInsts < 0 || e.fetchFR.NumInsts > fetchLineHeadroom {
		w.Failf("core: fetch line of %d instructions, want 0..%d", e.fetchFR.NumInsts, fetchLineHeadroom)
		return
	}
	if e.fetchActive && e.dqN > dispatchQueueCap-fetchLineHeadroom {
		w.Failf("core: %d queued instructions leave no room for the line in flight", e.dqN)
	}
}

// Restore loads a snapshot produced by Snapshot into a freshly constructed
// engine (same configuration up to WarmKey, same dictionary and record
// stream). On success the engine continues exactly where the recording run
// stood: stepping it to completion yields results bit-identical (modulo
// telemetry) to a straight-through run in the engine's own clock mode.
//
// On error the engine may hold partially restored state and must be
// discarded; Restore never leaves a usable-but-wrong engine behind silently.
func (e *Engine) Restore(data []byte, workload string, fingerprint uint64) error {
	if e.cycle != 0 || e.seq != 0 || e.done || e.err != nil {
		return fmt.Errorf("core %s: Restore needs a freshly constructed engine", e.cfg.Name)
	}
	m, payload, err := snap.Open(data)
	if err != nil {
		return err
	}
	if m.Workload != workload || m.Fingerprint != fingerprint {
		return fmt.Errorf("core %s: snapshot is for workload %q (fingerprint %016x), want %q (%016x)",
			e.cfg.Name, m.Workload, m.Fingerprint, workload, fingerprint)
	}
	if want := e.cfg.WarmKey(); m.WarmKey != want {
		return fmt.Errorf("core %s: snapshot warm key %016x does not match configuration key %016x",
			e.cfg.Name, m.WarmKey, want)
	}
	if m.TraceLen != int64(e.trLen) {
		return fmt.Errorf("core %s: snapshot trace length %d, engine trace length %d",
			e.cfg.Name, m.TraceLen, e.trLen)
	}
	if m.Committed >= e.target {
		return fmt.Errorf("core %s: snapshot at %d committed instructions is at or past the %d-instruction target",
			e.cfg.Name, m.Committed, e.target)
	}

	d := snap.NewDecoder(payload)
	e.walk(snap.Loader(d), memory.NewReqSet())
	// Clock-mode diagnostics restart from zero (see Snapshot).
	e.skipped, e.ffJumps = 0, 0
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after engine state", snap.ErrCorrupt, d.Remaining())
	}

	// Cross-check the decoded state against the container meta.
	if e.lastCommitted != m.Committed || e.cycle != m.Cycle {
		return fmt.Errorf("%w: payload frontier (committed %d, cycle %d) disagrees with meta (%d, %d)",
			snap.ErrCorrupt, e.lastCommitted, e.cycle, m.Committed, m.Cycle)
	}
	if got := e.backend.Committed(); got != e.lastCommitted {
		return fmt.Errorf("%w: back-end committed %d disagrees with engine frontier %d",
			snap.ErrCorrupt, got, e.lastCommitted)
	}

	// Let windowed trace sources evict the committed prefix, exactly as the
	// recording run's commit path did.
	e.tr.Advance(int(e.lastCommitted))
	// The watchdog counts from the restore point: the last commit's cycle
	// is not in the snapshot, and a healthy run's next commit is far
	// closer than stallCycles either way.
	e.deadline = min(e.maxCycles, e.cycle+stallCycles)
	return nil
}

// RunUntilCommitted steps the simulation until at least n instructions have
// committed (the warm-up boundary for Snapshot). It stops at a Step boundary,
// so the machine state is exactly what a straight-through run holds there.
func (e *Engine) RunUntilCommitted(n uint64) error {
	for e.lastCommitted < n && e.Step() {
	}
	if e.err != nil {
		return e.err
	}
	if e.lastCommitted < n {
		return fmt.Errorf("core %s: simulation finished at %d committed instructions, before the requested %d",
			e.cfg.Name, e.lastCommitted, n)
	}
	return nil
}
