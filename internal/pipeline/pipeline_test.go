package pipeline

import (
	"slices"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/snap"
)

func alu(pc isa.Addr, src1, src2, dst uint8) *isa.StaticInst {
	return &isa.StaticInst{PC: pc, Class: isa.OpALU, Src1: src1, Src2: src2, Dst: dst}
}

func dyn(si *isa.StaticInst, seq uint64) *DynInst {
	return &DynInst{Static: si, Seq: seq}
}

// run ticks the backend until all dispatched instructions commit or maxCycles
// is reached, returning the cycle after the last commit.
func runUntilDrained(t *testing.T, b *Backend, start uint64, maxCycles int) uint64 {
	t.Helper()
	now := start
	for i := 0; i < maxCycles; i++ {
		b.Tick(now)
		if b.Drained() {
			return now
		}
		now++
	}
	t.Fatalf("backend did not drain within %d cycles (occupancy %d)", maxCycles, b.Occupancy())
	return now
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Width: 0, RUUSize: 64}, nil); err == nil {
		t.Errorf("zero width should error")
	}
	if _, err := New(Config{Width: 8, RUUSize: 4}, nil); err == nil {
		t.Errorf("RUU smaller than width should error")
	}
	b := MustNew(Config{Width: 4, RUUSize: 64}, nil)
	cfg := b.Config()
	if cfg.PipelineDepth != 15 || cfg.FrontEndStages != 7 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	def := DefaultConfig()
	if def.Width != 4 || def.RUUSize != 64 || def.PipelineDepth != 15 {
		t.Errorf("DefaultConfig does not match Table 2: %+v", def)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustNew should panic")
		}
	}()
	MustNew(Config{Width: -1}, nil)
}

func TestDispatchCapacity(t *testing.T) {
	b := MustNew(Config{Width: 4, RUUSize: 8}, nil)
	if b.FreeSlots() != 8 {
		t.Errorf("FreeSlots = %d", b.FreeSlots())
	}
	for i := 0; i < 8; i++ {
		if !b.Dispatch(dyn(alu(isa.Addr(i*4), 1, 2, 3), uint64(i)), 0) {
			t.Fatalf("dispatch %d should succeed", i)
		}
	}
	if b.Dispatch(dyn(alu(0x100, 1, 2, 3), 99), 0) {
		t.Errorf("dispatch into a full RUU should fail")
	}
	if b.FreeSlots() != 0 || b.Occupancy() != 8 {
		t.Errorf("occupancy wrong")
	}
	if seq, ok := b.OldestUncommitted(); !ok || seq != 0 {
		t.Errorf("OldestUncommitted = %d, %v", seq, ok)
	}
}

func TestIndependentInstructionsCommitAtFullWidth(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	const n = 40
	for i := 0; i < n; i++ {
		// All independent (distinct registers, sources from the zero reg).
		si := alu(isa.Addr(i*4), isa.RegZero, isa.RegZero, uint8(1+i%30))
		if !b.Dispatch(dyn(si, uint64(i)), 0) {
			t.Fatalf("dispatch failed at %d", i)
		}
	}
	totalCommitted := 0
	maxPerCycle := 0
	now := uint64(0)
	for totalCommitted < n && now < 100 {
		committed, _ := b.Tick(now)
		if len(committed) > maxPerCycle {
			maxPerCycle = len(committed)
		}
		totalCommitted += len(committed)
		now++
	}
	if totalCommitted != n {
		t.Fatalf("committed %d of %d", totalCommitted, n)
	}
	if maxPerCycle != 4 {
		t.Errorf("max commits per cycle = %d, want 4", maxPerCycle)
	}
	if b.Committed() != n {
		t.Errorf("Committed() = %d", b.Committed())
	}
}

func TestCommitIsInOrder(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	// First instruction is a long-latency FP op; the rest are independent
	// ALU ops. Nothing may commit before the FP op does.
	fp := &isa.StaticInst{PC: 0, Class: isa.OpFP, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 5}
	b.Dispatch(dyn(fp, 0), 0)
	for i := 1; i < 10; i++ {
		b.Dispatch(dyn(alu(isa.Addr(i*4), isa.RegZero, isa.RegZero, uint8(10+i)), uint64(i)), 0)
	}
	var order []uint64
	for now := uint64(0); now < 60 && b.Occupancy() > 0; now++ {
		committed, _ := b.Tick(now)
		for _, d := range committed {
			order = append(order, d.Seq)
		}
	}
	if len(order) != 10 {
		t.Fatalf("committed %d instructions", len(order))
	}
	for i, seq := range order {
		if seq != uint64(i) {
			t.Fatalf("commit order broken: position %d has seq %d", i, seq)
		}
	}
}

func TestDataDependenceSerialisation(t *testing.T) {
	// A chain of dependent multiplies takes ~3 cycles each; independent ones
	// overlap. The dependent chain must take notably longer.
	depCycles := func(dependent bool) uint64 {
		b := MustNew(DefaultConfig(), nil)
		const n = 20
		for i := 0; i < n; i++ {
			src := uint8(isa.RegZero)
			if dependent && i > 0 {
				src = uint8(1 + (i-1)%30)
			}
			si := &isa.StaticInst{PC: isa.Addr(i * 4), Class: isa.OpMul, Src1: src, Src2: isa.RegZero, Dst: uint8(1 + i%30)}
			b.Dispatch(dyn(si, uint64(i)), 0)
		}
		now := uint64(0)
		for b.Occupancy() > 0 && now < 1000 {
			b.Tick(now)
			now++
		}
		return now
	}
	dep := depCycles(true)
	indep := depCycles(false)
	if dep <= indep+20 {
		t.Errorf("dependent chain (%d cycles) should be much slower than independent (%d cycles)", dep, indep)
	}
}

func TestLoadsAccessTheDataCache(t *testing.T) {
	mem := memory.MustNew(memory.DefaultConfig(cacti.Tech45, 4<<10))
	b := MustNew(DefaultConfig(), mem)
	ld := &isa.StaticInst{PC: 0, Class: isa.OpLoad, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 7}
	d := dyn(ld, 0)
	d.EffAddr = 0x9000_0000
	b.Dispatch(d, 0)
	now := uint64(0)
	for b.Occupancy() > 0 && now < 1000 {
		mem.Tick(now)
		b.Tick(now)
		now++
	}
	if b.Occupancy() != 0 {
		t.Fatalf("load never completed")
	}
	// A cold load must take at least the L2+memory latency.
	if now < 200 {
		t.Errorf("cold load committed after only %d cycles", now)
	}
	if mem.L1D().Accesses() == 0 {
		t.Errorf("the load should have accessed the D-cache")
	}
	// A second load to the same line is fast.
	b2 := MustNew(DefaultConfig(), mem)
	d2 := dyn(ld, 1)
	d2.EffAddr = 0x9000_0008
	b2.Dispatch(d2, 1000)
	start := uint64(1000)
	end := runUntilDrained(t, b2, start, 100)
	if end-start > 20 {
		t.Errorf("warm load took %d cycles", end-start)
	}
}

func TestStoresDoNotBlockCommit(t *testing.T) {
	mem := memory.MustNew(memory.DefaultConfig(cacti.Tech45, 4<<10))
	b := MustNew(DefaultConfig(), mem)
	st := &isa.StaticInst{PC: 0, Class: isa.OpStore, Src1: 3, Src2: isa.RegZero, Dst: isa.RegZero}
	d := dyn(st, 0)
	d.EffAddr = 0xa000_0000
	b.Dispatch(d, 0)
	end := runUntilDrained(t, b, 0, 50)
	if end > 20 {
		t.Errorf("store took %d cycles to commit", end)
	}
}

func TestMispredictedBranchResolution(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	// Correct-path branch marked mispredicted, followed by wrong-path
	// instructions.
	br := &isa.StaticInst{PC: 0x100, Class: isa.OpBranch, Src1: 2, Src2: isa.RegZero, Dst: isa.RegZero, Target: 0x500}
	bd := dyn(br, 0)
	bd.MispredictedBranch = true
	b.Dispatch(bd, 0)
	for i := 1; i <= 6; i++ {
		wd := dyn(alu(isa.Addr(0x200+i*4), isa.RegZero, isa.RegZero, uint8(i)), uint64(i))
		wd.WrongPath = true
		b.Dispatch(wd, 0)
	}

	var resolvedAt uint64
	var resolved *DynInst
	now := uint64(0)
	for ; now < 100; now++ {
		_, r := b.Tick(now)
		if r != nil {
			resolved = r
			resolvedAt = now
			break
		}
	}
	if resolved == nil {
		t.Fatalf("misprediction never resolved")
	}
	if resolved.Seq != 0 {
		t.Errorf("resolved the wrong instruction: seq %d", resolved.Seq)
	}
	// Resolution must take at least the dispatch-to-execute portion of the
	// 15-stage pipeline.
	if resolvedAt < b.Config().issueDelay() {
		t.Errorf("resolved at cycle %d, before the issue delay %d", resolvedAt, b.Config().issueDelay())
	}
	// Squash the wrong path: they never commit.
	n := b.SquashWrongPath()
	if n != 6 {
		t.Errorf("squashed %d, want 6", n)
	}
	if b.SquashedWrongPath() != 6 {
		t.Errorf("SquashedWrongPath = %d", b.SquashedWrongPath())
	}
	// Only the branch itself ever commits (it may already have committed in
	// the same cycle it resolved).
	for ; now < 200 && b.Occupancy() > 0; now++ {
		b.Tick(now)
	}
	if b.Committed() != 1 {
		t.Errorf("committed %d instructions, want only the branch", b.Committed())
	}
	if b.ResolvedMispredictions() != 1 {
		t.Errorf("ResolvedMispredictions = %d", b.ResolvedMispredictions())
	}
}

func TestWrongPathInstructionsNeverCommit(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	w := dyn(alu(0x10, isa.RegZero, isa.RegZero, 3), 0)
	w.WrongPath = true
	b.Dispatch(w, 0)
	c := dyn(alu(0x14, isa.RegZero, isa.RegZero, 4), 1)
	b.Dispatch(c, 0)
	// Even after many cycles the wrong-path head blocks commit; nothing is
	// committed until the squash.
	for now := uint64(0); now < 30; now++ {
		committed, _ := b.Tick(now)
		if len(committed) != 0 {
			t.Fatalf("committed %d instructions past a wrong-path head", len(committed))
		}
	}
	b.SquashWrongPath()
	total := 0
	for now := uint64(30); now < 60 && b.Occupancy() > 0; now++ {
		committed, _ := b.Tick(now)
		total += len(committed)
	}
	if total != 1 {
		t.Errorf("committed %d, want 1 after squash", total)
	}
}

func TestWrongPathDoesNotPolluteScoreboard(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	// A wrong-path FP instruction writes r5 very late; a correct-path ALU
	// instruction reading r5 must not wait for it.
	w := dyn(&isa.StaticInst{PC: 0, Class: isa.OpFP, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 5}, 0)
	w.WrongPath = true
	b.Dispatch(w, 0)
	c := dyn(alu(0x4, 5, isa.RegZero, 6), 1)
	b.Dispatch(c, 0)
	b.SquashWrongPath()
	end := runUntilDrained(t, b, 0, 40)
	if end > 20 {
		t.Errorf("correct-path instruction waited %d cycles on a squashed producer", end)
	}
}

func TestIPCIsBoundedByWidth(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	const n = 400
	dispatched := 0
	committed := 0
	now := uint64(0)
	for committed < n && now < 10000 {
		// Dispatch up to 4 independent instructions per cycle.
		for w := 0; w < 4 && dispatched < n && b.FreeSlots() > 0; w++ {
			si := alu(isa.Addr(dispatched*4), isa.RegZero, isa.RegZero, uint8(1+dispatched%30))
			b.Dispatch(dyn(si, uint64(dispatched)), now)
			dispatched++
		}
		c, _ := b.Tick(now)
		committed += len(c)
		now++
	}
	ipc := float64(committed) / float64(now)
	if ipc > 4.0 {
		t.Errorf("IPC %.2f exceeds the machine width", ipc)
	}
	if ipc < 2.0 {
		t.Errorf("IPC %.2f is unreasonably low for independent ALU instructions", ipc)
	}
}

// issueCycles ticks b (and mem, when set) over cycles [from, to) and returns,
// per instruction of ds, the cycle it issued (left the dispatched state), or
// -1 if it never did.
func issueCycles(b *Backend, mem *memory.Hierarchy, ds []*DynInst, from, to uint64) []int {
	at := make([]int, len(ds))
	for i := range at {
		at[i] = -1
	}
	for now := from; now < to; now++ {
		if mem != nil {
			mem.Tick(now)
		}
		b.Tick(now)
		for i, d := range ds {
			if at[i] < 0 && d.state != stateDispatched {
				at[i] = int(now)
			}
		}
	}
	return at
}

func TestSelectStaysOldestFirstAfterWakeup(t *testing.T) {
	// One issue slot per cycle. The consumer C is parked on the 3-cycle
	// multiply P while younger independent entries queue up ready; when P
	// completes, C is woken behind them on the ready list and must still win
	// the slot, as the oldest ready entry.
	b := MustNew(Config{Width: 1, RUUSize: 8}, nil)
	p := dyn(&isa.StaticInst{PC: 0, Class: isa.OpMul, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 1}, 0)
	c := dyn(alu(0x4, 1, isa.RegZero, 2), 1)
	ds := []*DynInst{p, c}
	for i := 2; i < 6; i++ {
		ds = append(ds, dyn(alu(isa.Addr(4*i), isa.RegZero, isa.RegZero, uint8(i+1)), uint64(i)))
	}
	for _, d := range ds {
		b.Dispatch(d, 0)
	}
	// issueDelay is 5: P issues at 5 and completes at 8; Y1, Y2 fill 6 and 7.
	want := []int{5, 8, 6, 7, 9, 10}
	got := issueCycles(b, nil, ds, 0, 12)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("issue cycles %v, want %v (oldest-first select)", got, want)
		}
	}
}

func TestConsumerIssuesInItsProducersCompletionCycle(t *testing.T) {
	// An ALU producer completes one cycle after issue; a load producer
	// completes whenever its data arrives. Either way the consumer issues in
	// the very cycle the producer completes.
	b := MustNew(DefaultConfig(), nil)
	p := dyn(alu(0, isa.RegZero, isa.RegZero, 1), 0)
	c := dyn(alu(0x4, 1, isa.RegZero, 2), 1)
	b.Dispatch(p, 0)
	b.Dispatch(c, 0)
	if got := issueCycles(b, nil, []*DynInst{p, c}, 0, 10); got[0] != 5 || got[1] != 6 {
		t.Errorf("issue cycles %v, want [5 6]", got)
	}

	mem := memory.MustNew(memory.DefaultConfig(cacti.Tech45, 4<<10))
	b = MustNew(DefaultConfig(), mem)
	ld := dyn(&isa.StaticInst{PC: 0, Class: isa.OpLoad, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 1}, 0)
	ld.EffAddr = 0x9000_0000
	c = dyn(alu(0x4, 1, isa.RegZero, 2), 1)
	b.Dispatch(ld, 0)
	b.Dispatch(c, 0)
	completed, issued := -1, -1
	for now := uint64(0); now < 2000 && issued < 0; now++ {
		mem.Tick(now)
		b.Tick(now)
		if completed < 0 && ld.Completed() {
			completed = int(now)
		}
		if issued < 0 && c.state != stateDispatched {
			issued = int(now)
		}
	}
	if completed < 200 || issued != completed {
		t.Errorf("load completed at %d, consumer issued at %d; want a cold miss and the same cycle", completed, issued)
	}
}

func TestSimultaneousMispredictionsResolveTheOlder(t *testing.T) {
	// The back-end does not restrict which instruction carries the
	// mispredict flag. The younger flagged FP op Y issues at 5 and completes
	// at 9; the older branch O waits on the multiply P, issues at 8 and also
	// completes at 9. Y was issued first, but O is older, so O resolves.
	b := MustNew(DefaultConfig(), nil)
	p := dyn(&isa.StaticInst{PC: 0, Class: isa.OpMul, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 1}, 0)
	o := dyn(&isa.StaticInst{PC: 0x4, Class: isa.OpBranch, Src1: 1, Src2: isa.RegZero, Dst: isa.RegZero}, 1)
	y := dyn(&isa.StaticInst{PC: 0x8, Class: isa.OpFP, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 2}, 2)
	o.MispredictedBranch, y.MispredictedBranch = true, true
	for _, d := range []*DynInst{p, o, y} {
		b.Dispatch(d, 0)
	}
	for now := uint64(0); now < 20; now++ {
		_, r := b.Tick(now)
		if r == nil {
			continue
		}
		if now != 9 || r != o {
			t.Fatalf("cycle %d resolved seq %d, want seq 1 at cycle 9", now, r.Seq)
		}
		if !y.Completed() || y.completAt != now {
			t.Fatalf("the younger flagged instruction did not complete alongside")
		}
		break
	}
	if b.ResolvedMispredictions() != 1 {
		t.Errorf("ResolvedMispredictions = %d, want 1", b.ResolvedMispredictions())
	}
}

// testCodec resolves static instructions by index into a fixed program.
type testCodec struct{ prog []*isa.StaticInst }

func (c testCodec) WalkStatic(w *snap.Walker, s **isa.StaticInst) {
	i := slices.Index(c.prog, *s)
	w.Int(&i)
	if w.Loading() {
		*s = nil
		if i >= 0 && i < len(c.prog) {
			*s = c.prog[i]
		}
	}
}

// testProgram is a dependence-heavy stream: multiply and FP producers with
// chained consumers, one mispredicted branch followed by wrong-path work.
func testProgram() (prog []*isa.StaticInst, wrong []bool, mispred []bool) {
	add := func(si *isa.StaticInst, wp, mp bool) {
		si.PC = isa.Addr(4 * len(prog))
		prog = append(prog, si)
		wrong = append(wrong, wp)
		mispred = append(mispred, mp)
	}
	for i := 0; i < 6; i++ {
		r := uint8(1 + i%5)
		add(&isa.StaticInst{Class: isa.OpMul, Src1: r, Src2: isa.RegZero, Dst: r}, false, false)
		add(&isa.StaticInst{Class: isa.OpFP, Src1: r, Src2: isa.RegZero, Dst: r + 1}, false, false)
		add(&isa.StaticInst{Class: isa.OpALU, Src1: r + 1, Src2: r, Dst: 7}, false, false)
		add(&isa.StaticInst{Class: isa.OpALU, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 8}, false, false)
	}
	add(&isa.StaticInst{Class: isa.OpBranch, Src1: 7, Src2: isa.RegZero, Dst: isa.RegZero}, false, true)
	for i := 0; i < 6; i++ {
		add(&isa.StaticInst{Class: isa.OpFP, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 9}, true, false)
	}
	for i := 0; i < 8; i++ {
		add(&isa.StaticInst{Class: isa.OpALU, Src1: 7, Src2: 8, Dst: uint8(1 + i%5)}, false, false)
	}
	return prog, wrong, mispred
}

func TestSnapshotMidFlightContinuesCycleIdentical(t *testing.T) {
	prog, wrong, mispred := testProgram()
	codec := testCodec{prog}
	cfg := Config{Width: 2, RUUSize: 16}
	orig := MustNew(cfg, nil)
	var restored *Backend
	next := [2]int{} // next program index to dispatch, per back-end
	feed := func(b *Backend, k int, now uint64) {
		for w := 0; w < cfg.Width && next[k] < len(prog); w++ {
			i := next[k]
			d := dyn(prog[i], uint64(i+1))
			d.WrongPath, d.MispredictedBranch = wrong[i], mispred[i]
			if !b.Dispatch(d, now) {
				return
			}
			next[k]++
		}
	}
	// squash is the resolution recovery: the RUU's wrong path goes, and so
	// does the undispatched rest of it (the core's dispatch-queue flush).
	squash := func(b *Backend, k int) {
		b.SquashWrongPath()
		for next[k] < len(prog) && wrong[next[k]] {
			next[k]++
		}
	}
	parked := func(b *Backend) bool {
		for i := 0; i < b.ruuN; i++ {
			if b.ruuAt(i).waitHead != nil {
				return true
			}
		}
		return false
	}
	for now := uint64(0); now < 400; now++ {
		if restored == nil && parked(orig) {
			var e snap.Encoder
			orig.Walk(snap.Saver(&e), memory.NewReqSet(), codec)
			restored = MustNew(cfg, nil)
			dec := snap.NewDecoder(e.Bytes())
			restored.Walk(snap.Loader(dec), memory.NewReqSet(), codec)
			if dec.Err() != nil || dec.Remaining() != 0 {
				t.Fatalf("cycle %d: restore: %v (%d bytes left)", now, dec.Err(), dec.Remaining())
			}
			next[1] = next[0]
		}
		cA, rA := orig.Tick(now)
		if rA != nil {
			squash(orig, 0)
		}
		feed(orig, 0, now)
		if restored == nil {
			continue
		}
		cB, rB := restored.Tick(now)
		if rB != nil {
			squash(restored, 1)
		}
		feed(restored, 1, now)
		if len(cA) != len(cB) || (rA == nil) != (rB == nil) || (rA != nil && rA.Seq != rB.Seq) {
			t.Fatalf("cycle %d: committed %d vs %d, resolved %v vs %v", now, len(cA), len(cB), seqOf(rA), seqOf(rB))
		}
		for i := range cA {
			if cA[i].Seq != cB[i].Seq {
				t.Fatalf("cycle %d: commit slot %d is seq %d after restore, %d straight", now, i, cB[i].Seq, cA[i].Seq)
			}
		}
		if a, b := orig.NextEvent(now), restored.NextEvent(now); a != b {
			t.Fatalf("cycle %d: NextEvent %d after restore, %d straight", now, b, a)
		}
		if orig.counters() != restored.counters() {
			t.Fatalf("cycle %d: counters %+v after restore, %+v straight", now, restored.counters(), orig.counters())
		}
	}
	if restored == nil {
		t.Fatal("no consumer was ever parked; the snapshot point was never reached")
	}
	if !orig.Drained() || orig.Committed() != uint64(len(prog)-6) {
		t.Errorf("program did not run to completion: committed %d, occupancy %d", orig.Committed(), orig.Occupancy())
	}
}

func TestLoadStateRejectsMalformedRUU(t *testing.T) {
	prog, _, _ := testProgram()
	codec := testCodec{prog}
	saved := func(mutate func(ds []*DynInst)) []byte {
		b := MustNew(DefaultConfig(), nil)
		var ds []*DynInst
		for i := 0; i < 3; i++ {
			d := dyn(prog[i], uint64(10+i))
			b.Dispatch(d, uint64(i))
			ds = append(ds, d)
		}
		mutate(ds)
		var e snap.Encoder
		b.Walk(snap.Saver(&e), memory.NewReqSet(), codec)
		return e.Bytes()
	}
	load := func(data []byte) error {
		dec := snap.NewDecoder(data)
		MustNew(DefaultConfig(), nil).Walk(snap.Loader(dec), memory.NewReqSet(), codec)
		return dec.Err()
	}
	if err := load(saved(func([]*DynInst) {})); err != nil {
		t.Fatalf("well-formed RUU rejected: %v", err)
	}
	if err := load(saved(func(ds []*DynInst) { ds[2].Seq = ds[1].Seq })); err == nil {
		t.Error("restore accepted an RUU whose Seq is not strictly increasing")
	}
	if err := load(saved(func(ds []*DynInst) { ds[1].issueAt = ds[0].issueAt - 1 })); err == nil {
		t.Error("restore accepted dispatched entries with decreasing issueAt")
	}
}

// TestPoolReleaseRecycles: a released pool's slab instructions — free or
// still in flight — come back zeroed from the next pool of that size, and a
// second release is a no-op. Past its slab a pool allocates.
func TestPoolReleaseRecycles(t *testing.T) {
	const n = 8
	p := NewPool(n)
	var drawn []*DynInst
	for i := 0; i < n+2; i++ {
		d := p.Get()
		d.Seq, d.WrongPath = uint64(i+1), true
		drawn = append(drawn, d)
	}
	for _, d := range drawn[:n/2] {
		p.Put(d) // free at release; the rest stay in flight
	}
	p.Release()
	p.Release()
	q := NewPool(n)
	for i := 0; i < n; i++ {
		if d := q.Get(); d != drawn[i] || *d != (DynInst{}) {
			t.Fatalf("instruction %d of the next pool is not the released pool's %d, zeroed", i, i)
		}
	}
	if d := q.Get(); d == drawn[n] || d == drawn[n+1] {
		t.Fatal("an instruction allocated past the released pool's slab came back")
	}
}
