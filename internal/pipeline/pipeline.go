// Package pipeline models the back-end of the simulated processor: a
// 4-wide, 15-stage machine with a 64-entry register update unit (RUU), as
// configured in Table 2 of the paper. The front-end (package core) delivers
// decoded instructions; the back-end models dispatch, data-dependence-aware
// issue, execution latencies, data-cache accesses, in-order commit, and
// branch resolution, which is when misprediction recovery is triggered.
//
// The model is deliberately simpler than the front-end — the paper's
// contribution is in instruction delivery — but it preserves the properties
// the evaluation depends on: the commit width caps IPC at 4, long-latency
// loads and dependence chains limit achievable IPC per benchmark, the RUU
// fills up and back-pressures fetch, and a mispredicted branch is only
// resolved when it executes, several cycles after it was fetched, so deeper
// effective front-ends (slower caches) pay a larger misprediction penalty.
package pipeline

import (
	"fmt"
	"slices"

	"clgp/internal/clock"
	"clgp/internal/freelist"
	"clgp/internal/isa"
	"clgp/internal/memory"
)

// DynInst is one in-flight dynamic instruction.
type DynInst struct {
	// Static is the decoded static instruction.
	Static *isa.StaticInst
	// Seq is a global sequence number assigned by the front-end.
	Seq uint64
	// WrongPath marks instructions fetched down a mispredicted path; they
	// occupy resources but are never committed.
	WrongPath bool
	// MispredictedBranch marks the branch whose resolution triggers
	// recovery.
	MispredictedBranch bool
	// EffAddr is the effective address for loads and stores.
	EffAddr isa.Addr
	// FetchedAt is the cycle the instruction left the fetch stage.
	FetchedAt uint64

	state     instState
	issueAt   uint64
	completAt uint64
	memReq    *memory.Request
	// deps are the in-flight producers of this instruction's source
	// registers; the instruction may issue only once both have completed.
	// Each reference carries the producer's sequence number so that a
	// producer recycled through a Pool (necessarily committed or squashed,
	// hence done) is recognised and never stalls the consumer.
	deps [2]depRef
	// waitHead lists the consumers parked on this instruction's completion;
	// waitNext links a parked consumer into its producer's list. Both are
	// scheduler state derived from deps, never serialised.
	waitHead *DynInst
	waitNext *DynInst
}

// depRef is a recycling-safe reference to a producer instruction.
type depRef struct {
	d   *DynInst
	seq uint64
}

// done reports whether the referenced producer has completed by cycle now.
func (r depRef) done(now uint64) bool {
	if r.d == nil || r.d.Seq != r.seq {
		// No producer, or the object was recycled for a younger instruction:
		// the original producer has left the pipeline.
		return true
	}
	return r.d.state == stateCompleted && r.d.completAt <= now
}

// Pool is a free-list of DynInsts. The front-end takes instructions from the
// pool at fetch time and the back-end returns them on commit and squash, so
// the steady-state cycle loop allocates no instruction objects. A pool's
// first instructions come from one slab, which Release hands back for the
// next pool, so a sweep's next engine reuses the previous one's
// instructions.
type Pool struct {
	free []*DynInst
	slab []DynInst // the undrawn rest of the slab
	all  []DynInst // the whole slab, for Release
}

// slabs recycles the instruction slabs of released pools.
var slabs freelist.Tables[DynInst]

// NewPool creates a pool whose first n instructions come from one slab, a
// released pool's when one of that size is free. Size n to the most
// instructions the owner holds at once; past that, Get allocates.
func NewPool(n int) *Pool {
	all := slabs.Get(n)
	return &Pool{slab: all, all: all}
}

// Get returns a zeroed DynInst, reusing a released one when available.
func (p *Pool) Get() *DynInst {
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free = p.free[:n-1]
		*d = DynInst{}
		return d
	}
	if len(p.slab) > 0 {
		d := &p.slab[0]
		p.slab = p.slab[1:]
		return d
	}
	return &DynInst{}
}

// Put releases an instruction back to the pool. The caller must not touch it
// afterwards.
func (p *Pool) Put(d *DynInst) {
	if d != nil {
		p.free = append(p.free, d)
	}
}

// Release hands the pool's slab back for the next pool to reuse, with every
// instruction in it wherever it is: free, in flight or still referenced by a
// discarded pipeline. Call it only once nothing will read or write them
// again. Releasing twice is a no-op. A pool that is never released leaves
// its slab to the collector.
func (p *Pool) Release() {
	slabs.Put(p.all)
	*p = Pool{}
}

type instState uint8

const (
	stateDispatched instState = iota
	stateIssued
	stateWaitingMem
	stateCompleted
)

// Completed reports whether the instruction has finished execution.
func (d *DynInst) Completed() bool { return d.state == stateCompleted }

// Config sizes the back-end.
type Config struct {
	// Width is the dispatch/issue/commit width (Table 2: 4).
	Width int
	// RUUSize is the register update unit capacity (Table 2: 64).
	RUUSize int
	// PipelineDepth is the nominal total pipeline depth (Table 2: 15); the
	// portion behind dispatch sets the minimum dispatch-to-execute delay.
	PipelineDepth int
	// FrontEndStages is the number of stages ahead of dispatch (prediction,
	// fetch, decode); the back-end charges the remaining depth.
	FrontEndStages int
}

// DefaultConfig returns the Table 2 back-end configuration.
func DefaultConfig() Config {
	return Config{Width: 4, RUUSize: 64, PipelineDepth: 15, FrontEndStages: 7}
}

func (c Config) normalise() (Config, error) {
	if c.Width <= 0 {
		return c, fmt.Errorf("pipeline: width must be positive, got %d", c.Width)
	}
	if c.RUUSize < c.Width {
		return c, fmt.Errorf("pipeline: RUU size %d smaller than width %d", c.RUUSize, c.Width)
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 15
	}
	if c.FrontEndStages <= 0 || c.FrontEndStages >= c.PipelineDepth {
		c.FrontEndStages = c.PipelineDepth / 2
	}
	return c, nil
}

// issueDelay is the number of cycles between dispatch and the earliest
// possible issue, representing the rename/schedule stages of the back half
// of the pipeline.
func (c Config) issueDelay() uint64 {
	d := c.PipelineDepth - c.FrontEndStages - 3 // minus execute/writeback/commit
	if d < 1 {
		d = 1
	}
	return uint64(d)
}

// Backend is the back-end model.
type Backend struct {
	cfg Config
	mem *memory.Hierarchy

	// ruu is a fixed ring buffer of in-flight instructions in program order;
	// logical index 0 (at head) is the oldest. It is the commit-order store
	// and the snapshot's view of the back-end; scheduling never walks it.
	// Its length is RUUSize rounded up to a power of two so ring indexing is
	// a mask (the issue-delay FIFO shares the length and the mask);
	// occupancy is still capped at RUUSize.
	ruu     []*DynInst
	ruuMask int
	ruuHead int
	ruuN    int

	// The scheduler indices partition the RUU's not-yet-completed entries;
	// they are derived state, rebuilt by a loading Walk and never serialised.
	// Each holds at most RUUSize entries and is preallocated to that, so
	// the cycle loop never grows them. Slots outside a list's live range
	// may hold stale pointers; they are overwritten before they are read,
	// and the instructions they name are pool-owned either way.
	//
	// delay is a ring of dispatched entries still inside the issue delay,
	// keyed by issueAt. Dispatch stamps now+issueDelay with a non-decreasing
	// now, so the keys are non-decreasing and only the head can be due.
	delay     []timedInst
	delayHead int
	delayN    int
	// ready holds entries past the issue delay whose producers have all
	// completed, in Seq order (= program order), so select is a prefix.
	// Entries past the delay with an in-flight producer are on neither
	// list: they are parked on that producer's waitHead list.
	ready []*DynInst
	// exec holds issued and memory-waiting entries, each keyed by the cycle
	// it next needs attention (completAt, or its request's NextEvent), so a
	// completion pass skips entries that are not due without touching them.
	exec []timedInst

	// nextEv and readyNow cache the back-end's event horizon, recomputed by
	// every TickInto from the scheduler indices and refined by Dispatch:
	// readyNow records that same-cycle work remained after the tick (a
	// width-limited ready instruction or a committable head), nextEv the
	// earliest future cycle any in-flight instruction acts. NextEvent reads
	// the cache in O(1).
	nextEv   uint64
	readyNow bool

	// pool, when set, receives committed and squashed instructions so their
	// objects are recycled by the front-end.
	pool *Pool

	// regProducer tracks, per architectural register, the most recently
	// dispatched correct-path instruction that writes it (the scoreboard).
	// References are seq-tagged: see depRef.
	regProducer [isa.NumRegs]depRef

	// statistics
	committed    uint64
	wrongSquash  uint64
	loadsExec    uint64
	storesExec   uint64
	resolvedMisp uint64
}

// New creates a back-end bound to the given memory hierarchy (for data-cache
// accesses; may be nil in unit tests that use no memory instructions).
func New(cfg Config, mem *memory.Hierarchy) (*Backend, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	ringLen := 1
	for ringLen < cfg.RUUSize {
		ringLen <<= 1
	}
	return &Backend{
		cfg:     cfg,
		mem:     mem,
		ruu:     make([]*DynInst, ringLen),
		ruuMask: ringLen - 1,
		delay:   make([]timedInst, ringLen),
		ready:   make([]*DynInst, 0, cfg.RUUSize),
		exec:    make([]timedInst, 0, cfg.RUUSize),
		nextEv:  clock.None,
	}, nil
}

// timedInst is a scheduler-index entry: an instruction and the cycle it next
// needs attention, kept inline so a scan reads only the keys of entries that
// are not due.
type timedInst struct {
	at uint64
	d  *DynInst
}

// SetPool attaches a DynInst pool; committed and squashed instructions are
// released to it. Without a pool the caller owns released instructions.
func (b *Backend) SetPool(p *Pool) { b.pool = p }

// ruuAt returns the instruction at logical index i (0 = oldest).
func (b *Backend) ruuAt(i int) *DynInst { return b.ruu[(b.ruuHead+i)&b.ruuMask] }

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config, mem *memory.Hierarchy) *Backend {
	b, err := New(cfg, mem)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the normalised configuration.
func (b *Backend) Config() Config { return b.cfg }

// FreeSlots returns how many instructions can currently be dispatched.
func (b *Backend) FreeSlots() int { return b.cfg.RUUSize - b.ruuN }

// Occupancy returns the number of instructions in the RUU.
func (b *Backend) Occupancy() int { return b.ruuN }

// Committed returns the number of committed (correct-path) instructions.
func (b *Backend) Committed() uint64 { return b.committed }

// SquashedWrongPath returns the number of wrong-path instructions removed.
func (b *Backend) SquashedWrongPath() uint64 { return b.wrongSquash }

// ResolvedMispredictions returns how many mispredicted branches resolved.
func (b *Backend) ResolvedMispredictions() uint64 { return b.resolvedMisp }

// Dispatch inserts an instruction into the RUU at cycle now. It returns
// false when the RUU is full (the caller must retry next cycle). At most
// Width instructions should be dispatched per cycle; the caller enforces
// that (it is the same limit as the fetch width).
func (b *Backend) Dispatch(d *DynInst, now uint64) bool {
	if b.ruuN >= b.cfg.RUUSize {
		return false
	}
	d.state = stateDispatched
	d.issueAt = now + b.cfg.issueDelay()
	if !d.WrongPath {
		// Data dependences: remember the in-flight producers of the source
		// registers; issue waits for them to complete.
		if d.Static.Src1 != isa.RegZero {
			d.deps[0] = b.regProducer[d.Static.Src1]
		}
		if d.Static.Src2 != isa.RegZero {
			d.deps[1] = b.regProducer[d.Static.Src2]
		}
		if d.Static.Dst != isa.RegZero {
			b.regProducer[d.Static.Dst] = depRef{d: d, seq: d.Seq}
		}
	}
	b.ruu[(b.ruuHead+b.ruuN)&b.ruuMask] = d
	b.ruuN++
	b.delay[(b.delayHead+b.delayN)&b.ruuMask] = timedInst{at: d.issueAt, d: d}
	b.delayN++
	// The new instruction's earliest action is its issue slot; fold it into
	// the cached horizon (dispatch happens after this cycle's TickInto, so
	// the tick's recomputation did not see it).
	b.nextEv = clock.Min(b.nextEv, d.issueAt)
	return true
}

// Tick advances execution and commit by one cycle. It returns the
// instructions committed this cycle and, if a mispredicted branch completed
// execution this cycle, that branch (resolution); the caller then flushes
// the front-end and calls SquashWrongPath. Tick allocates the committed
// slice; the core's cycle loop uses TickInto with a reusable buffer instead.
func (b *Backend) Tick(now uint64) (committed []*DynInst, resolved *DynInst) {
	return b.TickInto(now, nil)
}

// TickInto is Tick appending the committed instructions into buf (which may
// be nil) and returning the extended slice. With a buffer of capacity Width
// it performs no allocations. Committed instructions are NOT released to the
// pool — the caller consumes them (stats, training) and releases them.
//
// A tick is wakeup/select over the scheduler indices, never a scan of the
// RUU: completions wake their parked consumers, due entries leave the
// issue-delay FIFO, the ready list issues oldest-first up to Width, and the
// head commits in order. The machine state is cycle for cycle that of
// examining every RUU entry in program order each tick (completing, then
// issuing when ready): a producer is always older than its consumers, so
// a consumer may issue in its producer's completion cycle, and select in
// Seq order is program order. FuzzBackendMatchesWalk holds the two to
// equality.
func (b *Backend) TickInto(now uint64, buf []*DynInst) (committed []*DynInst, resolved *DynInst) {
	committed = buf
	// Idle gate: when the cached horizon proves nothing can issue, complete
	// or commit at `now`, the tick is a no-op — skip it. Every way an entry
	// can act is in the cache: the delay-FIFO head's issueAt and every exec
	// entry's wake cycle are in nextEv (an unscheduled memory request wakes
	// at the tick's own cycle), and a leftover ready entry or a committable
	// head sets readyNow. A parked entry has no event of its own: it can
	// become ready only when its producer completes, and that completion is
	// in nextEv. Contributions are fixed cycles that never move earlier, so
	// the cache stays never-late across any span of gated cycles;
	// SquashWrongPath can expose a committable survivor at the head, so it
	// forces the next tick itself. The per-cycle NoSkip clock mode takes
	// this path too: the gate elides provably dead ticks, not cycles, so
	// both clock modes see identical machine states.
	if b.ruuN > 0 && !b.readyNow && b.nextEv > now {
		return committed, nil
	}
	nextEv := clock.None

	// 1. Completions. An entry that is not due keeps its slot unread; a
	// completing one wakes its parked consumers, which can then issue this
	// very cycle. resolved is the oldest mispredicted branch completing now.
	kept := 0
	for _, e := range b.exec {
		if e.at > now {
			b.exec[kept] = e
			kept++
			nextEv = clock.Min(nextEv, e.at)
			continue
		}
		d := e.d
		if d.state == stateWaitingMem {
			if !d.memReq.Ready(now) {
				e.at = d.memReq.NextEvent(now)
				b.exec[kept] = e
				kept++
				nextEv = clock.Min(nextEv, e.at)
				continue
			}
			if b.mem != nil {
				b.mem.Release(d.memReq)
			}
			d.memReq = nil
			d.completAt = now
		}
		d.state = stateCompleted
		if d.MispredictedBranch && d.completAt == now && (resolved == nil || d.Seq < resolved.Seq) {
			resolved = d
		}
		for c := d.waitHead; c != nil; {
			next := c.waitNext
			c.waitNext = nil
			if p := blocker(c, now); p != nil {
				park(c, p)
			} else {
				b.insertReady(c)
			}
			c = next
		}
		d.waitHead = nil
	}
	b.exec = b.exec[:kept]
	if resolved != nil {
		b.resolvedMisp++
	}

	// 2. Delay pops. The FIFO's keys are non-decreasing, so the first entry
	// not yet due ends the pass and is the FIFO's horizon. A popped entry
	// is younger than everything already past the delay, so when ready it
	// joins the tail of the ready list.
	for b.delayN > 0 {
		e := b.delay[b.delayHead]
		if e.at > now {
			nextEv = clock.Min(nextEv, e.at)
			break
		}
		b.delayHead = (b.delayHead + 1) & b.ruuMask
		b.delayN--
		if p := blocker(e.d, now); p != nil {
			park(e.d, p)
		} else {
			b.ready = append(b.ready, e.d)
		}
	}

	// 3. Select: issue the oldest ready entries, up to Width.
	n := min(len(b.ready), b.cfg.Width)
	for _, d := range b.ready[:n] {
		at := b.issue(d, now)
		b.exec = append(b.exec, timedInst{at: at, d: d})
		nextEv = clock.Min(nextEv, at)
	}
	left := copy(b.ready, b.ready[n:])
	b.ready = b.ready[:left]
	// A width-limited ready entry is same-cycle work.
	readyNow := left > 0

	// In-order commit of up to Width completed correct-path instructions.
	for b.ruuN > 0 && len(committed)-len(buf) < b.cfg.Width {
		head := b.ruu[b.ruuHead]
		if head.WrongPath || head.state != stateCompleted || head.completAt > now {
			break
		}
		b.ruu[b.ruuHead] = nil
		b.ruuHead = (b.ruuHead + 1) & b.ruuMask
		b.ruuN--
		b.committed++
		committed = append(committed, head)
	}
	// A still-committable head (width-limited commit, or completed behind the
	// instructions committed above) is same-cycle work.
	if b.ruuN > 0 {
		if head := b.ruu[b.ruuHead]; !head.WrongPath && head.state == stateCompleted {
			readyNow = true
		}
	}
	b.nextEv, b.readyNow = nextEv, readyNow
	return committed, resolved
}

// blocker returns the first producer of d still in flight at cycle now, or
// nil when every producer has completed and d may issue.
func blocker(d *DynInst, now uint64) *DynInst {
	for _, p := range d.deps {
		if !p.done(now) {
			return p.d
		}
	}
	return nil
}

// park puts d on producer p's consumer list until p completes. A producer is
// always older than its consumers and is correct-path, hence never squashed,
// so its completion is certain to wake every consumer parked on it.
func park(d, p *DynInst) {
	d.waitNext = p.waitHead
	p.waitHead = d
}

// insertReady puts a woken consumer on the ready list at its Seq position.
// The list holds only width-limited leftovers and this cycle's wakeups, so a
// linear search from the tail is enough.
func (b *Backend) insertReady(d *DynInst) {
	i := len(b.ready)
	for i > 0 && b.ready[i-1].Seq > d.Seq {
		i--
	}
	b.ready = append(b.ready, nil)
	copy(b.ready[i+1:], b.ready[i:])
	b.ready[i] = d
}

// issue starts execution of d at cycle now and returns the cycle at which d
// next needs the completion pass's attention.
func (b *Backend) issue(d *DynInst, now uint64) uint64 {
	cls := d.Static.Class
	switch {
	case cls == isa.OpLoad:
		b.loadsExec++
		if b.mem != nil && !d.WrongPath {
			d.memReq = b.mem.AccessData(d.EffAddr, now, false)
			d.state = stateWaitingMem
			return d.memReq.NextEvent(now)
		}
		d.completAt = now + 1
	case cls == isa.OpStore:
		b.storesExec++
		if b.mem != nil && !d.WrongPath {
			// Stores complete immediately from the pipeline's perspective;
			// the request is consumed on the spot, so release it right away.
			b.mem.Release(b.mem.AccessData(d.EffAddr, now, true))
		}
		d.completAt = now + 1
	default:
		d.completAt = now + uint64(cls.ExecLatency())
	}
	d.state = stateIssued
	return d.completAt
}

// NextEvent returns the earliest cycle, at or after now, at which Tick could
// change any back-end state (the clock contract, see package clock). It is
// O(1): TickInto recomputes the horizon from the scheduler indices it touches
// anyway and Dispatch folds in new instructions, so no rescan happens here.
// The cached contributions, one per scheduler index:
//
//   - a leftover ready-list entry (width-limited this cycle) or a committable
//     head is same-cycle work — recorded as readyNow;
//   - the issue-delay FIFO contributes its head's issueAt, the earliest of
//     its keys (possibly early, if that entry's producers are slower —
//     harmlessly conservative);
//   - parked entries have no event of their own: each waits on an in-flight
//     producer, which is on the FIFO, the ready list or the exec list and
//     contributes there, and its completion wakes them;
//   - exec entries contribute their wake cycle: completAt for executing
//     ones, the request's NextEvent for memory-waiting ones (a request still
//     contending for the bus reports "now", forcing per-cycle ticks until it
//     is scheduled). Tick stamps completAt with its own cycle on memory
//     completion and detects branch resolution by completAt == now, so never
//     skipping past these horizons is what keeps resolution — and with it
//     every downstream flush — on exactly the per-cycle schedule.
//
// Completed wrong-path instructions are inert until the resolution squash,
// which the mispredicted (correct-path) branch's own completion event covers;
// SquashWrongPath only removes work, so the cache going stale across a squash
// is at worst conservatively early.
func (b *Backend) NextEvent(now uint64) uint64 {
	if b.ruuN == 0 {
		return clock.None
	}
	if b.readyNow || b.nextEv <= now {
		return now
	}
	return b.nextEv
}

// SquashWrongPath removes every wrong-path instruction from the RUU and the
// scheduler indices. The core calls it when the mispredicted branch
// resolves. Squashed instructions are released to the pool when one is
// attached. It returns the number of squashed instructions. Wrong-path
// instructions carry no dependences and are never producers, so none is
// parked and no consumer list needs repair.
func (b *Backend) SquashWrongPath() int {
	n := 0
	w := 0
	for r := 0; r < b.ruuN; r++ {
		d := b.ruuAt(r)
		if d.WrongPath {
			n++
			if b.pool != nil {
				b.pool.Put(d)
			}
			continue
		}
		b.ruu[(b.ruuHead+w)&b.ruuMask] = d
		w++
	}
	// Clear the vacated tail slots so no stale pointers linger.
	for i := w; i < b.ruuN; i++ {
		b.ruu[(b.ruuHead+i)&b.ruuMask] = nil
	}
	b.ruuN = w
	b.wrongSquash += uint64(n)

	w = 0
	for r := 0; r < b.delayN; r++ {
		if e := b.delay[(b.delayHead+r)&b.ruuMask]; !e.d.WrongPath {
			b.delay[(b.delayHead+w)&b.ruuMask] = e
			w++
		}
	}
	b.delayN = w
	b.ready = slices.DeleteFunc(b.ready, func(d *DynInst) bool { return d.WrongPath })
	b.exec = slices.DeleteFunc(b.exec, func(e timedInst) bool { return e.d.WrongPath })

	// Removing a wrong-path head can expose an already-completed survivor at
	// the commit point — work the cached horizon never accounted for. Force
	// the next TickInto to run and recompute.
	b.readyNow = true
	return n
}

// Drained reports whether the RUU is empty.
func (b *Backend) Drained() bool { return b.ruuN == 0 }

// OldestUncommitted returns the sequence number of the oldest instruction in
// the RUU, or 0 and false when empty. Useful for debugging deadlocks.
func (b *Backend) OldestUncommitted() (uint64, bool) {
	if b.ruuN == 0 {
		return 0, false
	}
	return b.ruu[b.ruuHead].Seq, true
}
