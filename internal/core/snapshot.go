package core

import (
	"fmt"
	"hash/fnv"

	"clgp/internal/bpred"
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
// warm-state snapshot. Name (a label), MaxInsts (the stop condition) and
// NoSkip (the clock mode, which never changes results) are deliberately
// excluded — a sweep that varies only those axes pays warm-up once.
func (c Config) WarmKey() uint64 {
	if n, err := c.normalise(); err == nil {
		c = n
	}
	h := fnv.New64a()
	// The fixed Table 2 parameters stay in the hashed text so keys, and the
	// snapshot stores addressed by them, match those of earlier builds.
	fmt.Fprintf(h, "tech=%d l1i=%d l1ipipe=%t l0=%t ideal=%t eng=%d pb=%d fw=%d rp=%d be=%+v bp=%+v",
		int(c.Tech), c.L1ISize, c.L1IPipelined, c.UseL0, c.IdealICache,
		int(c.Engine), c.PreBufferEntries, fetchWidth, redirectPenalty,
		pipeline.DefaultConfig(), bpred.DefaultConfig())
	return h.Sum64()
}

// SaveStatic implements pipeline.InstCodec: a static-instruction pointer is
// written as nil (0), the engine's synthetic off-image nop (2), or an image
// instruction identified by its PC (1).
func (e *Engine) SaveStatic(enc *snap.Encoder, s *isa.StaticInst) {
	switch {
	case s == nil:
		enc.U8(0)
	case s == &e.nop:
		enc.U8(2)
	default:
		enc.U8(1)
		enc.U64(uint64(s.PC))
	}
}

// LoadStatic implements pipeline.InstCodec, resolving references written by
// SaveStatic through the engine's dictionary.
func (e *Engine) LoadStatic(d *snap.Decoder) *isa.StaticInst {
	switch marker := d.U8(); marker {
	case 0:
		return nil
	case 2:
		return &e.nop
	case 1:
		pc := isa.Addr(d.U64())
		si := e.dict.Inst(pc)
		if si == nil && d.Err() == nil {
			d.Failf("core: static instruction at %#x not in the dictionary", pc)
		}
		return si
	default:
		if d.Err() == nil {
			d.Failf("core: invalid static instruction marker %d", marker)
		}
		return nil
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
	return snap.Seal(meta, func(enc *snap.Encoder) {
		enc.Tag(coreTag)
		rs.Save(enc)

		// Engine scalars.
		enc.U64(e.cycle)
		enc.U64(e.seq)
		enc.U64(e.nextSeqID)
		enc.U64(e.lastCommitted)
		enc.U64(e.pfCancelled)
		enc.Int(e.predCursor)
		enc.Bool(e.wrongPath)
		enc.U64(uint64(e.wrongPC))
		enc.U64(e.predStallUntil)
		enc.Bool(e.recoveryValid)
		enc.U64(e.recoverHistory)
		enc.U8(uint8(e.recoverEnd))
		enc.U64(uint64(e.recoverRet))
		// rasScratch is write-before-read scratch storage; only the recovery
		// checkpoint itself needs to travel.
		bpred.SaveRASSnapshot(enc, e.recoverRAS)

		// Block bookkeeping ring, verbatim.
		enc.Int(len(e.blockMeta))
		for i := range e.blockMeta {
			m := &e.blockMeta[i]
			enc.U64(m.seqID)
			enc.Int(m.traceBase)
			enc.Int(m.numInsts)
			enc.Int(m.delivered)
			enc.Bool(m.mispred)
		}

		// Fetch stage.
		enc.Bool(e.fetchActive)
		rs.SaveID(enc, e.fetchReq)
		enc.U64(e.fetchReadyAt)
		enc.U64(uint64(e.fetchFR.Line))
		enc.U64(uint64(e.fetchFR.Start))
		enc.Int(e.fetchFR.NumInsts)
		enc.U64(uint64(e.fetchFR.Next))
		enc.Bool(e.fetchFR.LastOfBlock)
		enc.Bool(e.fetchFR.EndsInBranch)
		enc.Bool(e.fetchFR.WrongPath)
		enc.U64(e.fetchFR.BlockID)

		// Abandoned wrong-path demand fetches still draining.
		enc.Int(len(e.drain))
		for _, r := range e.drain {
			rs.SaveID(enc, r)
		}

		// Dispatch queue, in logical (fetch) order.
		enc.Int(e.dqN)
		for i := 0; i < e.dqN; i++ {
			pipeline.SaveInst(enc, e.dq[(e.dqHead+i)%dispatchQueueCap], rs, e)
		}

		// Statistics that feed stats.Results.
		enc.U64(e.fetched)
		enc.U64(e.wrongPathFetched)
		enc.U64(e.branches)
		enc.U64(e.mispredicts)
		enc.U64(e.detectedMisp)
		for i := range e.fetchSources {
			enc.U64(e.fetchSources[i])
		}
		for i := range e.accounts {
			enc.U64(e.accounts[i])
		}

		// Component sections.
		e.mem.SaveState(enc, rs)
		e.backend.SaveState(enc, rs, e)
		e.eng.SaveState(enc, rs)
		e.pred.SaveState(enc)
	}), nil
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
	d.Tag(coreTag)
	rs := memory.NewReqSet()
	rs.Load(d)

	e.cycle = d.U64()
	e.seq = d.U64()
	e.nextSeqID = d.U64()
	e.lastCommitted = d.U64()
	e.pfCancelled = d.U64()
	e.predCursor = d.Int()
	e.wrongPath = d.Bool()
	e.wrongPC = isa.Addr(d.U64())
	e.predStallUntil = d.U64()
	e.recoveryValid = d.Bool()
	e.recoverHistory = d.U64()
	e.recoverEnd = bpred.EndClass(d.U8())
	e.recoverRet = isa.Addr(d.U64())
	bpred.LoadRASSnapshot(d, &e.recoverRAS)
	// Clock-mode diagnostics restart from zero (see Snapshot).
	e.skipped, e.ffJumps = 0, 0

	// Prediction runs ahead of commit along the trace, and never past its
	// end.
	if d.Err() == nil && (e.predCursor < int(e.lastCommitted) || e.predCursor > e.trLen) {
		d.Failf("core: prediction cursor %d outside [%d, %d]", e.predCursor, e.lastCommitted, e.trLen)
	}
	n := d.Count(blockMetaRing)
	if d.Err() == nil && n != blockMetaRing {
		d.Failf("core: block meta ring size %d, want %d", n, blockMetaRing)
	}
	if d.Err() != nil {
		return d.Err()
	}
	for i := range e.blockMeta {
		m := &e.blockMeta[i]
		m.seqID = d.U64()
		m.traceBase = d.Int()
		m.numInsts = d.Int()
		m.delivered = d.Int()
		m.mispred = d.Bool()
	}

	e.fetchActive = d.Bool()
	e.fetchReq = rs.LoadID(d)
	e.fetchReadyAt = d.U64()
	e.fetchFR.Line = isa.Addr(d.U64())
	e.fetchFR.Start = isa.Addr(d.U64())
	e.fetchFR.NumInsts = d.Int()
	e.fetchFR.Next = isa.Addr(d.U64())
	e.fetchFR.LastOfBlock = d.Bool()
	e.fetchFR.EndsInBranch = d.Bool()
	e.fetchFR.WrongPath = d.Bool()
	e.fetchFR.BlockID = d.U64()

	nd := d.Count(1 << 20)
	e.drain = e.drain[:0]
	for i := 0; i < nd && d.Err() == nil; i++ {
		r := rs.LoadID(d)
		if r == nil && d.Err() == nil {
			d.Failf("core: drain entry %d references no request", i)
			break
		}
		e.drain = append(e.drain, r)
	}

	if d.Err() == nil && (e.fetchFR.NumInsts < 0 || e.fetchFR.NumInsts > fetchLineHeadroom) {
		d.Failf("core: fetch line of %d instructions, want 0..%d", e.fetchFR.NumInsts, fetchLineHeadroom)
	}
	dqN := d.Count(dispatchQueueCap)
	// fetchStage starts a line only with a full line of headroom, and only
	// dispatch moves the queue while the line is in flight.
	if d.Err() == nil && e.fetchActive && dqN > dispatchQueueCap-fetchLineHeadroom {
		d.Failf("core: %d queued instructions leave no room for the line in flight", dqN)
	}
	if d.Err() != nil {
		return d.Err()
	}
	for i := range e.dq {
		e.dq[i] = nil
	}
	e.dqHead = 0
	e.dqN = dqN
	for i := 0; i < dqN; i++ {
		di := e.pool.Get()
		// Pre-dispatch instructions carry no dependence links yet (Dispatch
		// establishes them), so the fixups are always empty; discard them.
		_ = pipeline.LoadInst(d, di, rs, e)
		e.dq[i] = di
	}

	e.fetched = d.U64()
	e.wrongPathFetched = d.U64()
	e.branches = d.U64()
	e.mispredicts = d.U64()
	e.detectedMisp = d.U64()
	for i := range e.fetchSources {
		e.fetchSources[i] = d.U64()
	}
	for i := range e.accounts {
		e.accounts[i] = d.U64()
	}

	e.mem.LoadState(d, rs)
	e.backend.LoadState(d, rs, e)
	e.eng.LoadState(d, rs)
	e.pred.LoadState(d)
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
