package core

import (
	"errors"
	"fmt"

	"clgp/internal/bpred"
	"clgp/internal/clock"
	"clgp/internal/ftq"
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/pipeline"
	"clgp/internal/prefetch"
	"clgp/internal/stats"
	"clgp/internal/telemetry"
)

// Engine is the simulated processor: the trace-driven, wrong-path-capable
// cycle loop that ties the stream predictor, the decoupling queue and
// prefetch engine, the pre-buffer/L0/L1 hierarchy, the fetch stage and the
// back-end pipeline together.
//
// The loop is engineered to be allocation-free in steady state: DynInsts and
// memory Requests are recycled through free-lists, every queue is a ring
// buffer, and the predictor checkpoint needed for misprediction recovery is
// saved into reusable storage. BenchmarkEngineCycle verifies 0 allocs/op.
//
// Simulation model. The committed (correct-path) execution is given by a
// trace; the static program image (basic block dictionary) additionally
// allows the front-end to fetch along mispredicted paths, exactly as the
// paper's simulator does. The simulator compares each stream prediction
// against the trace immediately (it is the oracle), but the machine only
// learns about a misprediction when the mispredicted branch executes in the
// back-end: until that resolution the front-end keeps predicting, fetching
// and prefetching down the wrong path through the dictionary, polluting (or
// usefully warming) the caches and buffers. On resolution the queues are
// flushed, wrong-path instructions are squashed, the predictor's history and
// return-address stack are restored, and prediction restarts at the correct
// target after redirectPenalty cycles.
type Engine struct {
	cfg     Config
	mem     *memory.Hierarchy
	eng     prefetch.Engine
	backend *pipeline.Backend
	pred    *bpred.Predictor
	dict    *isa.Dictionary
	tr      TraceSource

	cycle     uint64
	seq       uint64 // dynamic instruction sequence numbers (from 1)
	nextSeqID uint64 // fetch block ids
	maxStream int
	target    uint64 // committed-instruction goal
	maxCycles uint64
	// deadline is the cycle at which the run fails for lack of progress:
	// stallCycles after the last commit (or the start, or the restore
	// point), capped at maxCycles. It is derived state, not snapshotted.
	deadline uint64
	done     bool
	err      error

	// trLen caches tr.Len() (immutable for the engine's lifetime) so the
	// per-cycle prediction stage does not pay an interface dispatch for it.
	trLen int
	// lastCommitted mirrors backend.Committed() as of the end of the last
	// Step; tr.Advance and the windowed-trace eviction it drives fire only
	// when the commit frontier actually moved.
	lastCommitted uint64

	// Event-horizon clock state: noSkip pins the engine to the per-cycle
	// reference path; skipped counts the cycles fast-forwarded over (they
	// are still part of e.cycle — results are bit-identical either way).
	noSkip  bool
	skipped uint64
	// ffJumps counts distinct fast-forward jumps; pfCancelled counts
	// prefetches cancelled on misprediction recovery. Both feed the
	// telemetry.Snapshot; like skipped, they are single-writer uint64s.
	ffJumps     uint64
	pfCancelled uint64

	// Prediction state. predCursor indexes the next trace record not yet
	// consumed by a correct-path prediction; on the wrong path the predictor
	// runs from wrongPC through its own tables instead.
	predCursor     int
	wrongPath      bool
	wrongPC        isa.Addr
	predStallUntil uint64

	// Recovery checkpoint, valid while a mispredicted branch is in flight.
	// rasScratch is refreshed before every correct-path prediction so the
	// checkpoint never allocates.
	recoveryValid  bool
	recoverHistory uint64
	recoverRAS     bpred.RASSnapshot
	recoverEnd     bpred.EndClass
	recoverRet     isa.Addr
	rasScratch     bpred.RASSnapshot

	// blockMeta associates fetch blocks (by SeqID) with their trace records;
	// a ring indexed by SeqID keeps lookups O(1) without a map.
	blockMeta []blockMeta

	// Fetch state: at most one cache line is being fetched at a time; its
	// instructions are delivered into the dispatch queue when the data
	// arrives, and the back-end dispatches up to fetchWidth of them per
	// cycle.
	fetchActive  bool
	fetchReq     *memory.Request // nil when served by the pre-buffer
	fetchReadyAt uint64
	fetchFR      prefetch.FetchRequest

	// drain holds demand-fetch requests abandoned by a misprediction flush;
	// they complete in the background and are then released.
	drain []*memory.Request

	// dq is the dispatch queue ring (fetched, not yet dispatched).
	dq     []*pipeline.DynInst
	dqHead int
	dqN    int

	pool      *pipeline.Pool
	commitBuf []*pipeline.DynInst

	// nop backs wrong-path fetches that run off the program image.
	nop isa.StaticInst

	// statistics
	fetched          uint64
	wrongPathFetched uint64
	branches         uint64
	mispredicts      uint64
	detectedMisp     uint64
	fetchSources     stats.Distribution

	// accounts charges every simulated cycle to exactly one leading cause
	// (see stats.CycleCause). Ticked cycles are charged individually after
	// the stage ticks; fast-forwarded spans are charged in bulk to the cause
	// bound to the binding horizon. Single-writer, updated in the hot loop
	// without atomics; the conservation invariant accounts.Total() == cycle
	// holds at every Step boundary and is identical across clock modes.
	accounts stats.CycleAccounts
}

// blockMeta is the simulator-side bookkeeping for one fetch block.
type blockMeta struct {
	seqID     uint64
	traceBase int // first trace record of the block; -1 for wrong-path blocks
	numInsts  int
	delivered int
	mispred   bool // the block's last instruction is the mispredicted branch
}

// dispatchQueueCap bounds the fetched-but-not-dispatched window; a fetch
// line holds at most fetchLineHeadroom instructions, so fetch stalls when
// fewer than that many slots are free.
const dispatchQueueCap = 64

// fetchLineHeadroom is the dispatch-queue space a line fetch may need on
// delivery (64B line / 4B instructions). fetchStage's start condition and
// skipToNextEvent's same-cycle-work check share it: if they diverged, the
// skip path could jump over a cycle where fetch would start a line and
// break the bit-identical-results guarantee.
const fetchLineHeadroom = 16

// blockMetaRing must exceed the maximum number of in-flight fetch blocks
// (queue capacity plus the block being fetched).
const blockMetaRing = 64

// stallCycles is the progress watchdog: a run fails once this many cycles
// pass after its last commit without another. Over the figures grid (all
// twelve profiles, both nodes, 200K instructions, 1,728 runs) and the
// repository benchmark's 2M-instruction gcc and mcf runs, the longest gap
// between commits is 459 cycles, so the limit leaves a ~109x margin while
// ending a wedged machine in milliseconds instead of at maxCycles.
const stallCycles = 50_000

// NewEngine builds a simulator for one configuration over a program image
// and its committed trace. The trace may be fully materialised
// (trace.MemTrace) or windowed over an on-disk container
// (trace.WindowTrace); the engine only requires the TraceSource contract.
func NewEngine(cfg Config, dict *isa.Dictionary, tr TraceSource) (*Engine, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	if dict == nil || tr == nil {
		return nil, fmt.Errorf("core: engine needs a dictionary and a trace")
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	mem, err := memory.New(cfg.memoryConfig())
	if err != nil {
		return nil, err
	}
	backend, err := pipeline.New(pipeline.DefaultConfig(), mem)
	if err != nil {
		return nil, err
	}
	pred, err := bpred.New(bpred.DefaultConfig())
	if err != nil {
		return nil, err
	}
	eng, err := buildPrefetchEngine(cfg, mem)
	if err != nil {
		return nil, err
	}

	target := uint64(tr.Len())
	e := &Engine{
		cfg:       cfg,
		mem:       mem,
		eng:       eng,
		backend:   backend,
		pred:      pred,
		dict:      dict,
		tr:        tr,
		maxStream: pred.Config().MaxStreamLength,
		target:    target,
		// An IPC below 1/500 over a whole run means the simulation wedged;
		// treat it as an internal error instead of spinning forever.
		maxCycles: 500*target + 1_000_000,
		trLen:     tr.Len(),
		noSkip:    cfg.NoSkip,
		blockMeta: make([]blockMeta, blockMetaRing),
		dq:        make([]*pipeline.DynInst, dispatchQueueCap),
		// At most a full RUU, a full dispatch queue and one commit group
		// of instructions are in flight.
		pool:      pipeline.NewPool(backend.Config().RUUSize + dispatchQueueCap + backend.Config().Width),
		commitBuf: make([]*pipeline.DynInst, 0, backend.Config().Width),
		nop:       isa.StaticInst{Class: isa.OpNop, Src1: isa.RegZero, Src2: isa.RegZero, Dst: isa.RegZero},
	}
	e.deadline = min(e.maxCycles, stallCycles)
	backend.SetPool(e.pool)
	pred.RASRef().SaveInto(&e.rasScratch)
	pred.RASRef().SaveInto(&e.recoverRAS)
	return e, nil
}

// MustNewEngine is NewEngine but panics on configuration errors.
func MustNewEngine(cfg Config, dict *isa.Dictionary, tr TraceSource) *Engine {
	e, err := NewEngine(cfg, dict, tr)
	if err != nil {
		panic(err)
	}
	return e
}

// errReleased is the error of an engine used after Release.
var errReleased = errors.New("core: engine used after Release")

// Release hands the engine's largest tables — the stream predictor's entries,
// the ways of every cache in the hierarchy and the slabs of its instruction
// pool — back for the next engine to reuse. Call it once the engine's
// results are built and it will not be stepped, snapshotted or restored
// again: afterwards Step does nothing, Run and Snapshot fail with an error,
// and nothing the engine exposes reads the released tables again (the
// predictor and caches drop their references; the pipeline's in-flight
// instructions stay referenced but are never read). Results, counters and
// Err stay readable. Releasing twice is a
// no-op. An engine that is never released keeps its tables until the
// collector takes them.
func (e *Engine) Release() {
	e.pred.Release()
	e.mem.ReleaseCaches()
	e.pool.Release()
	e.done = true
	if e.err == nil {
		e.err = errReleased
	}
}

// buildPrefetchEngine instantiates the configured instruction-delivery
// scheme.
func buildPrefetchEngine(cfg Config, mem *memory.Hierarchy) (prefetch.Engine, error) {
	pc := cfg.engineConfig()
	switch cfg.Engine {
	case EngineNone:
		return prefetch.NewNone(pc, mem)
	case EngineNextN:
		return prefetch.NewNextN(pc, mem)
	case EngineFDP:
		return prefetch.NewFDP(pc, mem)
	case EngineCLGP:
		return prefetch.NewCLGP(pc, mem)
	default:
		return nil, fmt.Errorf("core: unknown engine kind %d", cfg.Engine)
	}
}

// Config returns the normalised configuration.
func (e *Engine) Config() Config { return e.cfg }

// Cycles returns the number of simulated cycles so far, including cycles the
// event-horizon clock fast-forwarded over.
func (e *Engine) Cycles() uint64 { return e.cycle }

// SkippedCycles returns how many of the simulated cycles were fast-forwarded
// by the event-horizon clock rather than ticked individually (always 0 with
// Config.NoSkip). It is a simulator-speed diagnostic: the results of a run
// are bit-identical with and without skipping. It travels in
// stats.Results.Telemetry (mode-dependent by design); cross-mode
// equivalence checks compare Results.WithoutTelemetry().
func (e *Engine) SkippedCycles() uint64 { return e.skipped }

// TelemetrySnapshot returns the per-run simulator-speed and
// instrumentation counters. Unlike the architectural counters in
// stats.Results, these depend on the clock mode and trace backing
// (in-memory vs streaming window).
func (e *Engine) TelemetrySnapshot() telemetry.Snapshot {
	s := telemetry.Snapshot{
		Cycles:              e.cycle,
		SkippedCycles:       e.skipped,
		FastForwards:        e.ffJumps,
		WrongPathFetched:    e.wrongPathFetched,
		PrefetchesCancelled: e.pfCancelled,
	}
	if ws, ok := e.tr.(windowStats); ok {
		s.WindowMaxResident = ws.MaxResident()
		s.WindowCap = ws.Cap()
		s.WindowSourceReads = ws.SourceReads()
	}
	return s
}

// windowStats is the optional interface a TraceSource implements when it
// streams through a bounded window (trace.WindowTrace does).
type windowStats interface {
	MaxResident() int
	Cap() int
	SourceReads() int64
}

// CycleAccounts returns the cycle-accounting buckets so far. The buckets sum
// to Cycles() at every Step boundary (the conservation invariant) and are
// bit-identical across clock modes.
func (e *Engine) CycleAccounts() stats.CycleAccounts { return e.accounts }

// Err returns the error that stopped the simulation, if any.
func (e *Engine) Err() error { return e.err }

// Hierarchy exposes the memory hierarchy (tests, invariants).
func (e *Engine) Hierarchy() *memory.Hierarchy { return e.mem }

// PrefetchEngine exposes the instruction-delivery engine (tests).
func (e *Engine) PrefetchEngine() prefetch.Engine { return e.eng }

// Step simulates at least one cycle. It returns false once the simulation is
// done (target reached, trace exhausted, or an internal error — see Err).
//
// After ticking the current cycle, Step consults every component's event
// horizon (the clock contract, see package clock) and, when no same-cycle
// work exists anywhere, fast-forwards e.cycle straight to the earliest
// horizon: the idle cycles it jumps over are provably no-ops, so the results
// are bit-identical to the per-cycle reference path (Config.NoSkip) — the
// skipped cycles still elapse on the simulated clock, they just cost nothing
// to simulate. One Step may therefore advance many cycles; Cycles() is the
// simulated-time truth, SkippedCycles() the fast-forward credit.
func (e *Engine) Step() bool {
	if e.done {
		return false
	}
	now := e.cycle

	// 1. Memory system: one bus grant per cycle.
	e.mem.Tick(now)
	// 2. Prefetch engine: scan its queue, issue prefetches, complete fills.
	e.eng.Tick(now)
	// 3. Back-end: issue/execute/commit; detect branch resolution.
	e.commitBuf = e.commitBuf[:0]
	committed, resolved := e.backend.TickInto(now, e.commitBuf)
	e.commitBuf = committed
	for _, d := range committed {
		if d.Static.Class == isa.OpBranch {
			e.branches++
		}
		if d.MispredictedBranch {
			e.mispredicts++
		}
		e.pool.Put(d)
	}
	if resolved != nil {
		e.recoverFromMisprediction(now)
	}
	// Committed records are dead to the engine; let windowed trace sources
	// evict them. The frontier only moves on commit, so idle cycles skip
	// the interface call entirely.
	if len(committed) > 0 {
		e.lastCommitted = e.backend.Committed()
		e.tr.Advance(int(e.lastCommitted))
		e.deadline = min(e.maxCycles, now+stallCycles)
	}
	// 4. Release abandoned wrong-path demand fetches that completed.
	e.sweepDrain(now)
	// 5. Fetch: finish the in-flight line, start the next one.
	preFetched := e.fetched
	e.fetchStage(now)
	// 6. Dispatch up to fetchWidth fetched instructions into the RUU.
	e.dispatchStage(now)
	// 7. Predict one fetch block into the decoupling queue.
	preSeqID := e.nextSeqID
	e.predictStage(now)

	// Charge the cycle just ticked to exactly one leading cause, in priority
	// order: useful work (commit) first, then wrong-path activity, then the
	// cause-tagged horizon walk over the same state skipToNextEvent reads.
	// The walk runs at now (post-tick, pre-increment): over a provably idle
	// span every horizon is absolute and beyond the span, so the per-cycle
	// charge of a no-op cycle always matches the bulk charge the skip path
	// applies for it — skip and no-skip accounts are bit-identical.
	switch {
	case len(committed) > 0:
		e.accounts[stats.CycleCommit]++
	case resolved != nil || e.wrongPath:
		e.accounts[stats.CycleWrongPath]++
	default:
		cause, _, _ := e.horizonWalk(now)
		e.accounts[cause]++
	}

	e.cycle++
	if e.lastCommitted >= e.target {
		e.done = true
		return false
	}
	// Attempt a fast-forward only on cycles that did no front-end or commit
	// work: a machine transitioning into a stall ticks at most one no-op
	// cycle before the event-horizon clock engages, and busy cycles skip
	// the horizon computation entirely.
	if !e.noSkip && len(committed) == 0 && resolved == nil &&
		e.fetched == preFetched && e.nextSeqID == preSeqID {
		e.skipToNextEvent()
	}
	if e.cycle >= e.deadline {
		e.done = true
		e.err = fmt.Errorf("core %s: no forward progress after %d cycles (committed %d/%d)",
			e.cfg.Name, e.cycle, e.lastCommitted, e.target)
	}
	return !e.done
}

// horizonWalk is the machine-wide event-horizon walk, shared by cycle
// accounting (the cause of a ticked idle cycle) and the fast-forward path
// (the skip target and the bulk-attribution cause of the span). Each check
// either finds same-cycle work — sameCycle true, the returned cause names
// the component with work at now — or contributes a future horizon; on an
// idle machine, horizon is the minimum over all of them and cause names the
// component whose horizon is binding (ties go to the earlier check, in the
// fixed walk order below). Keeping one walk for both consumers is what makes
// skip and no-skip accounts bit-identical: they cannot diverge on which
// component owns a stall.
func (e *Engine) horizonWalk(now uint64) (cause stats.CycleCause, horizon uint64, sameCycle bool) {
	// Bus arbitration and the prediction stage are the cheapest and most
	// frequently live stages: test them first so busy phases exit in O(1).
	// The hierarchy's horizon is binary: now while anything is queued for a
	// grant, clock.None otherwise.
	if e.mem.NextEvent(now) <= now {
		return stats.CycleBus, now, true
	}
	// Until any check below binds a nearer horizon, an idle machine with no
	// pending event is a stalled front end (e.g. trace exhausted, queue
	// wedged): the frontend bucket is the default owner.
	cause = stats.CycleFrontend
	horizon = clock.None
	if e.wrongPath || e.predCursor < e.trLen {
		if !e.eng.QueueFull() {
			if now >= e.predStallUntil {
				// A block is predicted this cycle: on the correct path it
				// consumes trace records and drives the whole machine, on a
				// wrong path it feeds the queue the prefetch engine and the
				// fetch stage read. Either way, real same-cycle work.
				return stats.CycleFrontend, now, true
			}
			// Redirect penalty after a resolved misprediction: a branch-
			// predictor stall, charged to the frontend bucket.
			horizon = e.predStallUntil
		}
		// Queue full: prediction unblocks via a fetch-stage pop, which the
		// fetch horizon below already covers.
	}
	if e.dqN > 0 && e.backend.FreeSlots() > 0 {
		// Dispatch moves instructions this cycle: front-end delivery work.
		return stats.CycleFrontend, now, true
	}
	if e.fetchActive {
		var t uint64
		c := stats.CycleMemory
		if e.fetchReq == nil {
			// Pre-buffer hit latency: the line is on hand, the wait is the
			// front end's own access pipeline, not the memory system.
			t = e.fetchReadyAt
			c = stats.CycleFrontend
		} else {
			t = e.fetchReq.NextEvent(now)
		}
		if t <= now {
			return c, now, true
		}
		if t < horizon {
			horizon, cause = t, c
		}
	} else if dispatchQueueCap-e.dqN >= fetchLineHeadroom {
		if _, ok := e.eng.NextFetch(); ok {
			// A line fetch starts this cycle.
			return stats.CycleFrontend, now, true
		}
	}
	for _, r := range e.drain {
		t := r.NextEvent(now)
		if t <= now {
			return stats.CycleMemory, now, true
		}
		if t < horizon {
			horizon, cause = t, stats.CycleMemory
		}
	}
	if t := e.eng.NextEvent(now); t <= now {
		return stats.CyclePreBuffer, now, true
	} else if t < horizon {
		horizon, cause = t, stats.CyclePreBuffer
	}
	// The back-end horizon is RUU-full back-pressure when the window has no
	// free slot, otherwise an in-flight load the (empty-handed) front end is
	// waiting out.
	bc := stats.CycleMemory
	if e.backend.FreeSlots() == 0 {
		bc = stats.CycleRUUFull
	}
	if t := e.backend.NextEvent(now); t <= now {
		return bc, now, true
	} else if t < horizon {
		horizon, cause = t, bc
	}
	return cause, horizon, false
}

// skipToNextEvent fast-forwards the clock to the earliest cycle at which any
// component has work, when the machine is provably idle until then
// (horizonWalk found no same-cycle work). The jump target is the minimum
// horizon clamped to the progress deadline, so a fully wedged machine
// reports the same no-forward-progress error at the same cycle as the
// per-cycle path. The skipped span is charged in bulk to the binding
// horizon's cause — or to the wrong-path bucket while the front end is on a
// mispredicted path, matching the per-cycle charge of those cycles.
func (e *Engine) skipToNextEvent() {
	now := e.cycle
	cause, horizon, sameCycle := e.horizonWalk(now)
	if sameCycle {
		return
	}
	// A horizon of clock.None means nothing will ever happen again: jump to
	// the wedge detector, exactly where the per-cycle path would spin to.
	target := clock.Min(horizon, e.deadline)
	if target > now {
		if e.wrongPath {
			cause = stats.CycleWrongPath
		}
		e.accounts[cause] += target - now
		e.skipped += target - now
		e.cycle = target
		e.ffJumps++
	}
}

// Run simulates until completion and returns the collected results.
func (e *Engine) Run() (*stats.Results, error) {
	for e.Step() {
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.Results(), nil
}

// Results builds a fresh results record from the current counters.
func (e *Engine) Results() *stats.Results {
	r := &stats.Results{
		Name:             e.cfg.Name,
		Cycles:           e.cycle,
		Committed:        e.backend.Committed(),
		Fetched:          e.fetched,
		WrongPathFetched: e.wrongPathFetched,
		FetchSources:     e.fetchSources,
		Branches:         e.branches,
		Mispredictions:   e.mispredicts,
		CycleAccounts:    e.accounts,
	}
	e.mem.Stats(r)
	e.eng.CollectStats(r)
	snap := e.TelemetrySnapshot()
	// PrefetchesIssued lives in the hierarchy's stats; mirror it into the
	// snapshot after CollectStats so the telemetry block is self-contained.
	snap.PrefetchesIssued = r.PrefetchesIssued
	r.Telemetry = &snap
	return r
}

// meta returns the bookkeeping slot for a block id, or nil when the slot was
// already reused (cannot happen for in-flight blocks).
func (e *Engine) meta(seqID uint64) *blockMeta {
	m := &e.blockMeta[seqID%blockMetaRing]
	if m.seqID != seqID {
		return nil
	}
	return m
}

// storeMeta records bookkeeping for a newly predicted block.
func (e *Engine) storeMeta(seqID uint64, traceBase, numInsts int, mispred bool) {
	e.blockMeta[seqID%blockMetaRing] = blockMeta{
		seqID: seqID, traceBase: traceBase, numInsts: numInsts, mispred: mispred,
	}
}

// ---------------------------------------------------------------------------
// Prediction stage

// predictStage produces at most one fetch block per cycle (the stream
// predictor's one-cycle latency).
func (e *Engine) predictStage(now uint64) {
	if now < e.predStallUntil || e.eng.QueueFull() {
		return
	}
	if e.wrongPath {
		e.predictWrongPath()
		return
	}
	if e.predCursor < e.trLen {
		e.predictCorrectPath()
	}
}

// endClassOf maps a terminating instruction to its stream end class.
func endClassOf(si *isa.StaticInst) bpred.EndClass {
	if si == nil {
		return bpred.EndFallThrough
	}
	switch si.Class {
	case isa.OpBranch:
		return bpred.EndBranch
	case isa.OpJump:
		return bpred.EndJump
	case isa.OpCall:
		return bpred.EndCall
	case isa.OpReturn:
		return bpred.EndReturn
	default:
		return bpred.EndFallThrough
	}
}

// predictCorrectPath predicts the next stream on the correct path, compares
// it against the trace (the simulator is the oracle) and, on a mismatch,
// switches the front-end onto the wrong path until the branch resolves.
func (e *Engine) predictCorrectPath() {
	start := e.tr.At(e.predCursor).PC

	// Determine the actual stream: a run of records ending at the first
	// taken control instruction, or cut at the maximum stream length.
	n := 0
	next := start
	end := bpred.EndFallThrough
	for n < e.maxStream && e.predCursor+n < e.trLen {
		rec := e.tr.At(e.predCursor + n)
		n++
		next = rec.Target
		if rec.Taken {
			end = endClassOf(e.dict.Inst(rec.PC))
			break
		}
	}

	// Checkpoint the RAS before the predictor speculatively mutates it.
	e.pred.RASRef().SaveInto(&e.rasScratch)
	pred := e.pred.Predict(start)
	predN := pred.NumInsts
	if predN < 1 {
		predN = 1
	}
	if predN > e.maxStream {
		predN = e.maxStream
	}
	match := predN == n && pred.Next == next

	// The fetched correct-path prefix is the shared prefix of the predicted
	// and actual paths: both run sequentially from start, so it is the
	// shorter stream; a next-address mismatch diverges after the prefix.
	m := n
	if predN < n {
		m = predN
	}
	correctNext := next
	if m < n {
		correctNext = start + isa.Addr(m)*isa.InstBytes
	}

	fb := ftq.FetchBlock{
		Start:        start,
		NumInsts:     m,
		Next:         correctNext,
		EndsInBranch: m == n && end != bpred.EndFallThrough,
		SeqID:        e.nextSeqID,
	}
	if !e.eng.EnqueueBlock(fb) {
		return // queue filled this cycle; retry next cycle
	}
	e.storeMeta(fb.SeqID, e.predCursor, m, !match)
	e.nextSeqID++
	e.predCursor += m

	// Train with the actual stream (the paper trains at resolution; training
	// at prediction time is equivalent for a deterministic trace oracle and
	// keeps the loop simple).
	e.pred.Train(bpred.Stream{Start: start, NumInsts: n, Next: next, End: end})

	if match {
		return
	}
	// Misprediction: the machine will discover it when the block's last
	// instruction executes. Until then the front-end follows the predicted
	// (wrong) path.
	e.detectedMisp++
	e.wrongPath = true
	if predN > n {
		// Predicted through the actual terminator: the wrong path continues
		// sequentially inside the predicted block.
		e.wrongPC = start + isa.Addr(n)*isa.InstBytes
	} else {
		e.wrongPC = pred.Next
	}
	e.recoveryValid = true
	// The recovery PC needs no explicit record: predCursor already points at
	// the first unconsumed record, whose PC is the correct redirect target.
	// History: the push of `start` is path-independent, so the post-predict
	// value is the correct-path history. The RAS, however, must be rewound
	// to the pre-predict checkpoint and replayed with the ACTUAL end class.
	e.recoverHistory = e.pred.HistorySnapshot()
	e.recoverRAS, e.rasScratch = e.rasScratch, e.recoverRAS
	e.recoverEnd = end
	e.recoverRet = start + isa.Addr(n)*isa.InstBytes
}

// predictWrongPath keeps the predictor running down the mispredicted path,
// generating wrong-path fetch blocks from its own tables over the program
// image.
func (e *Engine) predictWrongPath() {
	pred := e.pred.Predict(e.wrongPC)
	n := pred.NumInsts
	if n < 1 {
		n = 1
	}
	if n > e.maxStream {
		n = e.maxStream
	}
	fb := ftq.FetchBlock{
		Start:        e.wrongPC,
		NumInsts:     n,
		Next:         pred.Next,
		EndsInBranch: pred.End != bpred.EndFallThrough,
		WrongPath:    true,
		SeqID:        e.nextSeqID,
	}
	if !e.eng.EnqueueBlock(fb) {
		return
	}
	e.storeMeta(fb.SeqID, -1, n, false)
	e.nextSeqID++
	e.wrongPC = pred.Next
}

// ---------------------------------------------------------------------------
// Fetch and dispatch stages

// fetchStage completes the in-flight line fetch (delivering its instructions
// into the dispatch queue) and starts the next line.
func (e *Engine) fetchStage(now uint64) {
	if e.fetchActive {
		ready := false
		src := stats.SrcPreBuffer
		if e.fetchReq == nil {
			ready = now >= e.fetchReadyAt
		} else if e.fetchReq.Ready(now) {
			ready = true
			src = e.fetchReq.Source
			e.mem.Release(e.fetchReq)
			e.fetchReq = nil
		}
		if ready {
			e.deliverLine(now, src)
			e.fetchActive = false
		}
	}
	// Start the next line once the dispatch queue can absorb a full line.
	if e.fetchActive || dispatchQueueCap-e.dqN < fetchLineHeadroom {
		return
	}
	fr, ok := e.eng.NextFetch()
	if !ok {
		return
	}
	e.eng.PopFetch()
	e.fetchFR = fr
	if hit, lat := e.eng.LookupBuffer(fr.Line, now); hit {
		if lat < 1 {
			lat = 1
		}
		e.fetchReq = nil
		e.fetchReadyAt = now + uint64(lat)
	} else {
		// Demand miss policy: fill the L1 (and the L0 when present) so the
		// caches act as the emergency path after mispredictions.
		e.fetchReq = e.mem.AccessIFetch(fr.Line, now, true, e.mem.HasL0())
	}
	e.fetchActive = true
}

// deliverLine turns the fetched line into dynamic instructions.
func (e *Engine) deliverLine(now uint64, src stats.Source) {
	fr := &e.fetchFR
	m := e.meta(fr.BlockID)
	e.fetchSources.Add(src, 1)
	for i := 0; i < fr.NumInsts; i++ {
		pc := fr.Start + isa.Addr(i)*isa.InstBytes
		d := e.pool.Get()
		e.seq++
		d.Seq = e.seq
		d.WrongPath = fr.WrongPath
		d.FetchedAt = now
		si := e.dict.Inst(pc)
		if si == nil {
			// Wrong-path fetch ran off the program image.
			si = &e.nop
		}
		d.Static = si
		if !fr.WrongPath && m != nil && m.traceBase >= 0 {
			rec := e.tr.At(m.traceBase + m.delivered)
			d.EffAddr = rec.EffAddr
			m.delivered++
			if m.mispred && m.delivered == m.numInsts {
				d.MispredictedBranch = true
			}
		}
		e.fetched++
		if d.WrongPath {
			e.wrongPathFetched++
		}
		e.dqPush(d)
	}
}

// dispatchStage moves up to fetchWidth instructions into the back-end.
func (e *Engine) dispatchStage(now uint64) {
	for dispatched := 0; e.dqN > 0 && dispatched < fetchWidth; dispatched++ {
		if !e.backend.Dispatch(e.dq[e.dqHead], now) {
			return // RUU full: back-pressure on fetch
		}
		e.dqPop()
	}
}

func (e *Engine) dqPush(d *pipeline.DynInst) {
	if e.dqN >= dispatchQueueCap {
		// Cannot happen: fetchStage leaves a full line of headroom.
		panic("core: dispatch queue overflow")
	}
	e.dq[(e.dqHead+e.dqN)%dispatchQueueCap] = d
	e.dqN++
}

func (e *Engine) dqPop() {
	e.dq[e.dqHead] = nil
	e.dqHead = (e.dqHead + 1) % dispatchQueueCap
	e.dqN--
}

// ---------------------------------------------------------------------------
// Misprediction recovery

// recoverFromMisprediction flushes the wrong path after the mispredicted
// branch resolved in the back-end.
func (e *Engine) recoverFromMisprediction(now uint64) {
	e.eng.Flush()
	e.backend.SquashWrongPath()
	e.pfCancelled += uint64(e.mem.CancelPrefetches())

	// Everything fetched after the (already dispatched and resolved) branch
	// is wrong-path: drop it.
	for e.dqN > 0 {
		e.pool.Put(e.dq[e.dqHead])
		e.dqPop()
	}
	// Abandon the in-flight line fetch; the request completes and is
	// reclaimed in the background.
	if e.fetchActive {
		if e.fetchReq != nil {
			e.drain = append(e.drain, e.fetchReq)
			e.fetchReq = nil
		}
		e.fetchActive = false
	}
	// Restore speculative predictor state, replaying the actual stream's
	// RAS effect (the wrong path may have pushed/popped arbitrarily).
	if e.recoveryValid {
		e.pred.RecoverHistory(e.recoverHistory)
		e.pred.RASRef().Restore(e.recoverRAS)
		switch e.recoverEnd {
		case bpred.EndCall:
			e.pred.RASRef().Push(e.recoverRet)
		case bpred.EndReturn:
			e.pred.RASRef().Pop()
		}
		e.recoveryValid = false
	}
	e.wrongPath = false
	e.predStallUntil = now + redirectPenalty
}

// sweepDrain releases abandoned demand fetches whose data arrived.
func (e *Engine) sweepDrain(now uint64) {
	kept := e.drain[:0]
	for _, r := range e.drain {
		if r.Ready(now) {
			e.mem.Release(r)
			continue
		}
		kept = append(kept, r)
	}
	e.drain = kept
}
