package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"clgp/internal/isa"
	"clgp/internal/trace"
)

// Workload is a generated benchmark: the static program image plus the
// dynamic correct-path trace the simulator commits.
type Workload struct {
	// Name is the profile name.
	Name string
	// Profile is the generating profile.
	Profile Profile
	// Dict is the program image (basic block dictionary).
	Dict *isa.Dictionary
	// Trace is the dynamic correct-path instruction trace.
	Trace *trace.MemTrace
}

// CodeBase is the address where generated code is placed.
const CodeBase isa.Addr = 0x0040_0000

// DataBase is the address where the synthetic data segment is placed.
const DataBase isa.Addr = 0x1000_0000

// maxCallDepth bounds the dynamic call stack of the trace walker.
const maxCallDepth = 64

// program is the intermediate static representation built by the generator.
type program struct {
	dict      *isa.Dictionary
	driver    isa.Addr   // entry of the driver loop
	midEntry  []isa.Addr // entry of each mid-level function
	leafEntry []isa.Addr // entry of each leaf function
}

// RecordSink consumes trace records in commit order. tracefile.Writer
// implements it, so a walked trace can stream straight to disk without ever
// being materialised in memory.
type RecordSink interface {
	Write(r trace.Record) error
}

// Generate builds the static program for profile p and walks it to produce
// a dynamic trace of numInsts instructions. The same (profile, numInsts,
// seed) triple always produces the same workload.
func Generate(p Profile, numInsts int, seed int64) (*Workload, error) {
	// Validate before sizing the trace: a negative count must fail as an
	// error, not as a makeslice panic.
	if err := checkArgs(p, numInsts); err != nil {
		return nil, err
	}
	tr := new(trace.MemTrace)
	tr.Grow(numInsts)
	dict, err := generate(p, numInsts, seed, tr.Append)
	if err != nil {
		return nil, err
	}
	return &Workload{Name: p.Name, Profile: p, Dict: dict, Trace: tr}, nil
}

// GenerateTo walks the program for (p, numInsts, seed) and emits every
// record to sink instead of materialising the trace, so arbitrarily long
// traces can be recorded in constant memory. It produces bit-identical
// records to Generate for the same triple (the walk is shared) and returns
// the program image, which is likewise identical to BuildImage's.
func GenerateTo(p Profile, numInsts int, seed int64, sink RecordSink) (*isa.Dictionary, error) {
	return generate(p, numInsts, seed, sink.Write)
}

// Fingerprint identifies the exact record stream a (profile, image) pair
// generates: the program-image hash folded with every profile parameter.
// The image hash alone is not enough — walk-only parameters (address mix,
// branch biases) never reach the image, so tuning them leaves
// isa.Dictionary.Hash unchanged while changing every generated record.
// Trace containers store this fingerprint, and streaming consumers verify
// it, so a container recorded before a profile retune is rejected instead
// of silently disagreeing with the regenerating path.
func Fingerprint(p Profile, dict *isa.Dictionary) uint64 {
	h := fnv.New64a()
	// Profile is a flat struct of scalars, so its %+v rendering is a
	// deterministic, collision-practical encoding that automatically picks
	// up future walk parameters.
	fmt.Fprintf(h, "%+v|%#x", p, dict.Hash())
	return h.Sum64()
}

// BuildImage builds only the static program image for (p, seed): the same
// dictionary Generate produces, without the cost of walking a trace. Used
// by consumers that stream a recorded trace and only need the image (and
// its Hash) to simulate against.
func BuildImage(p Profile, seed int64) (*isa.Dictionary, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	prog, err := buildProgram(p, rng)
	if err != nil {
		return nil, err
	}
	return prog.dict, nil
}

// generate is the shared build-then-walk pipeline behind Generate and
// GenerateTo. The program build consumes the head of the seeded RNG stream
// and the walk continues on the same stream, so image and trace are jointly
// deterministic in (p, numInsts, seed).
func generate(p Profile, numInsts int, seed int64, emit func(trace.Record) error) (*isa.Dictionary, error) {
	if err := checkArgs(p, numInsts); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	prog, err := buildProgram(p, rng)
	if err != nil {
		return nil, err
	}
	if err := walk(p, prog, numInsts, rng, emit); err != nil {
		return nil, err
	}
	return prog.dict, nil
}

// checkArgs rejects an invalid profile or a non-positive instruction count.
func checkArgs(p Profile, numInsts int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if numInsts <= 0 {
		return fmt.Errorf("workload %s: numInsts must be positive, got %d", p.Name, numInsts)
	}
	return nil
}

// blockBuilder accumulates instructions for one basic block.
type blockBuilder struct {
	start isa.Addr
	insts []isa.StaticInst
}

// codeBuilder lays out blocks at increasing addresses.
type codeBuilder struct {
	p       Profile
	rng     *rand.Rand
	dict    *isa.Dictionary
	nextPC  isa.Addr
	lastDst [4]uint8
}

func newCodeBuilder(p Profile, rng *rand.Rand) *codeBuilder {
	return &codeBuilder{p: p, rng: rng, dict: isa.NewDictionary(), nextPC: CodeBase,
		lastDst: [4]uint8{1, 2, 3, 4}}
}

// pickSrc returns a source register, biased towards recently written ones to
// model data dependences.
func (cb *codeBuilder) pickSrc() uint8 {
	if cb.rng.Float64() < cb.p.DepDensity {
		return cb.lastDst[cb.rng.Intn(len(cb.lastDst))]
	}
	return uint8(1 + cb.rng.Intn(isa.NumRegs-2))
}

// pickDst returns a destination register and records it as recently written.
func (cb *codeBuilder) pickDst() uint8 {
	d := uint8(1 + cb.rng.Intn(isa.NumRegs-2))
	cb.lastDst[cb.rng.Intn(len(cb.lastDst))] = d
	return d
}

// bodyInst synthesises one non-terminator instruction.
func (cb *codeBuilder) bodyInst(pc isa.Addr) isa.StaticInst {
	r := cb.rng.Float64()
	si := isa.StaticInst{PC: pc, Src1: cb.pickSrc(), Src2: cb.pickSrc(), Dst: cb.pickDst()}
	p := cb.p
	switch {
	case r < p.LoadFrac:
		si.Class = isa.OpLoad
	case r < p.LoadFrac+p.StoreFrac:
		si.Class = isa.OpStore
		si.Dst = isa.RegZero
	case r < p.LoadFrac+p.StoreFrac+p.MulFrac:
		si.Class = isa.OpMul
	case r < p.LoadFrac+p.StoreFrac+p.MulFrac+p.FPFrac:
		si.Class = isa.OpFP
	default:
		si.Class = isa.OpALU
	}
	return si
}

// newBlock starts a block at the current layout position with n body slots;
// the terminator is appended by the caller via one of the finish helpers.
func (cb *codeBuilder) newBlock(nBody int) *blockBuilder {
	bb := &blockBuilder{start: cb.nextPC}
	pc := cb.nextPC
	for i := 0; i < nBody; i++ {
		bb.insts = append(bb.insts, cb.bodyInst(pc))
		pc += isa.InstBytes
	}
	return bb
}

// terminator kinds appended to a block under construction.
func (cb *codeBuilder) finishFallThrough(bb *blockBuilder) error { return cb.commit(bb) }

func (cb *codeBuilder) finishBranch(bb *blockBuilder, target isa.Addr, bias float64, noisy bool) error {
	pc := bb.start + isa.Addr(len(bb.insts))*isa.InstBytes
	bb.insts = append(bb.insts, isa.StaticInst{
		PC: pc, Class: isa.OpBranch, Target: target,
		Src1: cb.pickSrc(), Src2: isa.RegZero, Dst: isa.RegZero, TakenBias: bias, Noisy: noisy,
	})
	return cb.commit(bb)
}

func (cb *codeBuilder) finishJump(bb *blockBuilder, target isa.Addr) error {
	pc := bb.start + isa.Addr(len(bb.insts))*isa.InstBytes
	bb.insts = append(bb.insts, isa.StaticInst{
		PC: pc, Class: isa.OpJump, Target: target,
		Src1: isa.RegZero, Src2: isa.RegZero, Dst: isa.RegZero, TakenBias: 1,
	})
	return cb.commit(bb)
}

func (cb *codeBuilder) finishCall(bb *blockBuilder, target isa.Addr) error {
	pc := bb.start + isa.Addr(len(bb.insts))*isa.InstBytes
	bb.insts = append(bb.insts, isa.StaticInst{
		PC: pc, Class: isa.OpCall, Target: target,
		Src1: isa.RegZero, Src2: isa.RegZero, Dst: isa.RegZero, TakenBias: 1,
	})
	return cb.commit(bb)
}

func (cb *codeBuilder) finishReturn(bb *blockBuilder) error {
	pc := bb.start + isa.Addr(len(bb.insts))*isa.InstBytes
	bb.insts = append(bb.insts, isa.StaticInst{
		PC: pc, Class: isa.OpReturn,
		Src1: isa.RegZero, Src2: isa.RegZero, Dst: isa.RegZero, TakenBias: 1,
	})
	return cb.commit(bb)
}

// commit registers the block in the dictionary and advances the layout.
func (cb *codeBuilder) commit(bb *blockBuilder) error {
	block := &isa.BasicBlock{Start: bb.start, Insts: bb.insts}
	if err := cb.dict.AddBlock(block); err != nil {
		return err
	}
	cb.nextPC = block.End()
	return nil
}

// blockLen samples a basic-block body length around the profile average.
func (cb *codeBuilder) blockLen() int {
	n := cb.p.AvgBlockInsts - 2 + cb.rng.Intn(5)
	if n < 1 {
		n = 1
	}
	return n
}

// funcLayout describes one mid-level function before its blocks are emitted:
// for each block, the terminator decision (so branch targets to later blocks
// can be computed from the planned block sizes).
type plannedBlock struct {
	bodyLen int
	kind    int // 0 fallthrough, 1 branch, 2 call(leaf), 3 return, 4 jump
	// For branches: relative block offset of the target (negative = loop).
	relTarget int
	bias      float64
	// noisy marks a data-dependent branch (outcomes drawn i.i.d. by the
	// walker instead of history-correlated).
	noisy  bool
	callee isa.Addr
}

// buildFunction emits one function with the planned structure and returns
// its entry address.
func (cb *codeBuilder) buildFunction(plan []plannedBlock) (isa.Addr, error) {
	// First pass: compute block start addresses from body lengths (+1 for
	// the terminator instruction where present).
	starts := make([]isa.Addr, len(plan))
	pc := cb.nextPC
	for i, pb := range plan {
		starts[i] = pc
		n := pb.bodyLen
		if pb.kind != 0 {
			n++
		}
		pc += isa.Addr(n) * isa.InstBytes
	}
	entry := starts[0]
	// Second pass: emit.
	for i, pb := range plan {
		bb := cb.newBlock(pb.bodyLen)
		var err error
		switch pb.kind {
		case 0:
			err = cb.finishFallThrough(bb)
		case 1:
			tgt := i + pb.relTarget
			if tgt < 0 {
				tgt = 0
			}
			if tgt >= len(plan) {
				tgt = len(plan) - 1
			}
			err = cb.finishBranch(bb, starts[tgt], pb.bias, pb.noisy)
		case 2:
			err = cb.finishCall(bb, pb.callee)
		case 3:
			err = cb.finishReturn(bb)
		case 4:
			tgt := i + pb.relTarget
			if tgt < 0 || tgt >= len(plan) {
				tgt = len(plan) - 1
			}
			err = cb.finishJump(bb, starts[tgt])
		default:
			err = fmt.Errorf("workload: unknown planned block kind %d", pb.kind)
		}
		if err != nil {
			return 0, err
		}
	}
	return entry, nil
}

// planLeaf plans a small leaf function: a few straight-line blocks, one
// optional internal loop, ending in a return.
func planLeaf(p Profile, rng *rand.Rand, avg int) []plannedBlock {
	n := 3 + rng.Intn(3)
	plan := make([]plannedBlock, n)
	for i := range plan {
		plan[i] = plannedBlock{bodyLen: avg - 1 + rng.Intn(3), kind: 0}
		if plan[i].bodyLen < 1 {
			plan[i].bodyLen = 1
		}
	}
	// One backward branch to form a short loop.
	if n >= 3 {
		plan[n-2].kind = 1
		plan[n-2].relTarget = -1
		plan[n-2].bias = 0.6 * p.LoopTakenBias
	}
	plan[n-1].kind = 3
	return plan
}

// planMid plans one mid-level function according to the profile.
func planMid(p Profile, rng *rand.Rand, leaves []isa.Addr, blockLen func() int) []plannedBlock {
	n := p.FuncBlocks
	plan := make([]plannedBlock, n)
	for i := range plan {
		plan[i] = plannedBlock{bodyLen: blockLen(), kind: 0}
	}
	for i := 0; i < n-1; i++ {
		r := rng.Float64()
		switch {
		case len(leaves) > 0 && r < p.CallFrac:
			plan[i].kind = 2
			plan[i].callee = leaves[rng.Intn(len(leaves))]
		case i >= 4 && i%6 == 5:
			// Loop back-edge over the last few blocks.
			plan[i].kind = 1
			plan[i].relTarget = -(2 + rng.Intn(3))
			plan[i].bias = p.LoopTakenBias
		case r < p.CallFrac+0.55:
			// Forward branch skipping one or two blocks.
			plan[i].kind = 1
			plan[i].relTarget = 1 + rng.Intn(2) + 1
			if rng.Float64() < p.NoisyBranchFrac {
				plan[i].bias = p.NoisyTakenBias
				plan[i].noisy = true
			} else {
				plan[i].bias = p.ForwardTakenBias
			}
		default:
			plan[i].kind = 0
		}
	}
	plan[n-1].kind = 3 // return
	return plan
}

// buildProgram lays out leaves, mid functions and the driver loop.
func buildProgram(p Profile, rng *rand.Rand) (*program, error) {
	cb := newCodeBuilder(p, rng)
	prog := &program{dict: cb.dict}

	// Leaf functions first so mid functions can call them.
	for i := 0; i < p.LeafFuncs; i++ {
		entry, err := cb.buildFunction(planLeaf(p, rng, 3))
		if err != nil {
			return nil, fmt.Errorf("building leaf %d: %w", i, err)
		}
		prog.leafEntry = append(prog.leafEntry, entry)
	}

	// Mid-level functions sized to reach the hot-code budget.
	funcInsts := p.FuncBlocks * p.AvgBlockInsts
	funcBytes := funcInsts * isa.InstBytes
	numMid := int(math.Ceil(float64(p.HotCodeKB*1024) / float64(funcBytes)))
	if numMid < 2 {
		numMid = 2
	}
	for i := 0; i < numMid; i++ {
		entry, err := cb.buildFunction(planMid(p, rng, prog.leafEntry, cb.blockLen))
		if err != nil {
			return nil, fmt.Errorf("building function %d: %w", i, err)
		}
		prog.midEntry = append(prog.midEntry, entry)
	}

	// Driver loop: for each mid function, a guard block (conditional branch
	// that skips the call with a per-function probability implementing the
	// Zipf-like execution skew) followed by a call block. A final jump block
	// closes the loop.
	driverPlan := make([]plannedBlock, 0, 2*numMid+1)
	for i := 0; i < numMid; i++ {
		callProb := 0.95 / math.Pow(float64(i+1), p.SkewFactor)
		if callProb < 0.02 {
			callProb = 0.02
		}
		guard := plannedBlock{bodyLen: 2 + rng.Intn(2), kind: 1, relTarget: 2, bias: 1 - callProb}
		call := plannedBlock{bodyLen: 1 + rng.Intn(2), kind: 2, callee: prog.midEntry[i]}
		driverPlan = append(driverPlan, guard, call)
	}
	driverPlan = append(driverPlan, plannedBlock{bodyLen: 2, kind: 4, relTarget: -(2 * numMid)})
	entry, err := cb.buildFunction(driverPlan)
	if err != nil {
		return nil, fmt.Errorf("building driver: %w", err)
	}
	prog.driver = entry
	prog.dict.SetEntry(entry)
	return prog, nil
}

// dataState generates load/store effective addresses: a sequential pointer
// that strides through the data segment, a fraction of random accesses over
// the whole footprint, and (for data-bound profiles like mcf/twolf) a
// pointer-chase chain whose next address is a deterministic function of the
// previous chase address — the serial dependent-miss pattern of linked-data
// traversals, as opposed to the i.i.d. random draw.
type dataState struct {
	footprint isa.Addr
	seqPtr    isa.Addr
	randFrac  float64

	chaseFrac  float64
	chaseNodes uint64 // 8-byte nodes in the footprint
	chaseIdx   uint64 // current chain position
}

func newDataState(p Profile) *dataState {
	return &dataState{
		footprint:  isa.Addr(p.DataFootprintKB) * 1024,
		randFrac:   p.RandomAccessFrac,
		chaseFrac:  p.PointerChaseFrac,
		chaseNodes: uint64(p.DataFootprintKB) * 1024 / 8,
	}
}

// chaseStep is the multiplicative step of the pointer-chase chain (Knuth's
// MMIX LCG constants); quality does not matter, only that successive nodes
// are serially dependent, deterministic, and scatter over the footprint.
const (
	chaseMul = 6364136223846793005
	chaseInc = 1442695040888963407
)

func (ds *dataState) next(rng *rand.Rand) isa.Addr {
	// A single draw partitions the modes, so profiles without a chase
	// fraction reproduce the exact pre-chase address streams.
	r := rng.Float64()
	switch {
	case r < ds.chaseFrac:
		ds.chaseIdx = (ds.chaseIdx*chaseMul + chaseInc) % ds.chaseNodes
		return DataBase + isa.Addr(ds.chaseIdx)*8
	case r < ds.chaseFrac+ds.randFrac:
		return DataBase + isa.Addr(rng.Int63n(int64(ds.footprint)))&^7
	default:
		ds.seqPtr = (ds.seqPtr + 8) % ds.footprint
		return DataBase + ds.seqPtr
	}
}

// Branch outcomes are not drawn i.i.d. per dynamic instance: real branches
// are history-correlated — loops iterate a stable number of times and
// data-dependent conditions persist across nearby executions — and the
// stream predictor's whole premise is that this structure exists. Each
// static conditional branch therefore carries a small 2-state behaviour:
//
//   - loop back-edges run a per-visit trip count drawn around
//     bias/(1-bias) (so the stationary taken rate still matches the
//     profile bias) and only occasionally jittered by ±1;
//   - biased forward branches follow a 2-state Markov chain whose
//     stationary taken probability is the bias and whose lag-1
//     autocorrelation is fwdBranchCorr, producing the streaky behaviour
//     predictors exploit;
//   - noisy branches (marked by the planner via StaticInst.Noisy) stay
//     i.i.d. — they model data-dependent directions no predictor can
//     learn. The planner's flag, not the bias value, decides: a weakly
//     biased branch can still be perfectly history-correlated.
const (
	// fwdBranchCorr is the lag-1 autocorrelation of biased forward branches.
	fwdBranchCorr = 0.9
	// tripJitterFrac is the probability that one loop visit runs ±1
	// iterations off the branch's base trip count.
	tripJitterFrac = 0.2
)

// branchState is the per-static-branch 2-state walker behaviour.
type branchState struct {
	// remaining is the number of taken executions left before the loop
	// back-edge falls through (loop branches only).
	remaining int
	// lastTaken is the previous outcome (forward branches only).
	lastTaken bool
	// primed reports whether lastTaken has been initialised.
	primed bool
}

// loopTrips draws the taken-run length for one loop visit: the base count
// keeps the stationary taken rate at the bias, with occasional ±1 jitter so
// runs are stable but not perfectly uniform.
func loopTrips(bias float64, rng *rand.Rand) int {
	base := int(math.Round(bias / (1 - bias + 1e-9)))
	if base < 1 {
		base = 1
	}
	switch r := rng.Float64(); {
	case r < tripJitterFrac/2 && base > 1:
		base--
	case r > 1-tripJitterFrac/2:
		base++
	}
	return base
}

// nextOutcome produces one dynamic direction for the branch.
func (bs *branchState) nextOutcome(si *isa.StaticInst, rng *rand.Rand) bool {
	bias := si.TakenBias
	switch {
	case si.Target < si.PC:
		// Loop back-edge: taken `remaining` times, then one fall-through.
		if bs.remaining > 0 {
			bs.remaining--
			return true
		}
		bs.remaining = loopTrips(bias, rng)
		return false
	case si.Noisy:
		// Noisy data-dependent branch: i.i.d., unlearnable by design.
		return rng.Float64() < bias
	default:
		// Biased forward branch: 2-state Markov chain with stationary
		// probability `bias` and autocorrelation fwdBranchCorr.
		if !bs.primed {
			bs.lastTaken = rng.Float64() < bias
			bs.primed = true
		}
		pTaken := bias * (1 - fwdBranchCorr)
		if bs.lastTaken {
			pTaken = bias + fwdBranchCorr*(1-bias)
		}
		bs.lastTaken = rng.Float64() < pTaken
		return bs.lastTaken
	}
}

// walk executes the program dynamically, emitting the correct-path trace
// record by record.
func walk(p Profile, prog *program, numInsts int, rng *rand.Rand, emit func(trace.Record) error) error {
	ds := newDataState(p)
	pc := prog.dict.Entry()
	var callStack []isa.Addr
	branches := make(map[isa.Addr]*branchState)

	for emitted := 0; emitted < numInsts; emitted++ {
		si := prog.dict.Inst(pc)
		if si == nil {
			return fmt.Errorf("workload %s: walked off the program image at %#x", p.Name, pc)
		}
		rec := trace.Record{PC: pc}
		if si.Class.IsMem() {
			rec.EffAddr = ds.next(rng)
		}
		switch si.Class {
		case isa.OpBranch:
			var taken bool
			if pc >= prog.driver {
				// Driver guard branches implement the Zipf-like function
				// dispatch; they stay i.i.d. so the mix of hot and cold
				// functions interleaves at loop granularity (correlating
				// them would serialise execution into long single-function
				// phases and shrink the dynamic footprint the cache sweep
				// depends on).
				taken = rng.Float64() < si.TakenBias
			} else {
				bs := branches[pc]
				if bs == nil {
					bs = &branchState{}
					branches[pc] = bs
				}
				taken = bs.nextOutcome(si, rng)
			}
			rec.Taken = taken
			if taken {
				rec.Target = si.Target
			} else {
				rec.Target = si.FallThrough()
			}
		case isa.OpJump:
			rec.Taken = true
			rec.Target = si.Target
		case isa.OpCall:
			rec.Taken = true
			rec.Target = si.Target
			if len(callStack) < maxCallDepth {
				callStack = append(callStack, si.FallThrough())
			}
		case isa.OpReturn:
			rec.Taken = true
			if len(callStack) > 0 {
				rec.Target = callStack[len(callStack)-1]
				callStack = callStack[:len(callStack)-1]
			} else {
				rec.Target = prog.driver
			}
		default:
			rec.Target = si.FallThrough()
		}
		if err := emit(rec); err != nil {
			return fmt.Errorf("workload %s: emitting record %d: %w", p.Name, emitted, err)
		}
		pc = rec.Target
	}
	return nil
}
