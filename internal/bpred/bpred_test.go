package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clgp/internal/isa"
)

func TestEndClassString(t *testing.T) {
	want := map[EndClass]string{
		EndFallThrough: "fallthrough",
		EndBranch:      "branch",
		EndJump:        "jump",
		EndCall:        "call",
		EndReturn:      "return",
	}
	for e, w := range want {
		if e.String() != w {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), w)
		}
	}
	if EndClass(77).String() != "endclass(77)" {
		t.Errorf("unknown end class string wrong")
	}
}

func TestStreamEndPC(t *testing.T) {
	s := Stream{Start: 0x1000, NumInsts: 4}
	if s.EndPC() != 0x100c {
		t.Errorf("EndPC = %#x, want 0x100c", s.EndPC())
	}
	empty := Stream{Start: 0x2000}
	if empty.EndPC() != 0x2000 {
		t.Errorf("empty stream EndPC = %#x", empty.EndPC())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{FirstLevelEntries: 0, SecondLevelEntries: 10, RASEntries: 8}); err == nil {
		t.Errorf("zero first-level table should error")
	}
	if _, err := New(Config{FirstLevelEntries: 10, SecondLevelEntries: 10, RASEntries: 0}); err == nil {
		t.Errorf("zero RAS should error")
	}
	p, err := New(Config{FirstLevelEntries: 16, SecondLevelEntries: 16, RASEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.MaxStreamLength != 64 || cfg.HistoryLength != 4 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	def := DefaultConfig()
	if def.FirstLevelEntries != 1024 || def.SecondLevelEntries != 6*1024 || def.RASEntries != 8 {
		t.Errorf("DefaultConfig = %+v does not match Table 2", def)
	}
	pd := MustNew(def)
	if pd.StorageEntries() != 1024+6*1024 {
		t.Errorf("StorageEntries = %d", pd.StorageEntries())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustNew should panic on invalid config")
		}
	}()
	MustNew(Config{})
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(3)
	if _, ok := r.Pop(); ok {
		t.Errorf("pop of empty RAS should fail")
	}
	if _, ok := r.Top(); ok {
		t.Errorf("top of empty RAS should fail")
	}
	r.Push(0x100)
	r.Push(0x200)
	if top, ok := r.Top(); !ok || top != 0x200 {
		t.Errorf("Top = %#x, %v", top, ok)
	}
	if r.Depth() != 2 {
		t.Errorf("Depth = %d", r.Depth())
	}
	if a, ok := r.Pop(); !ok || a != 0x200 {
		t.Errorf("Pop = %#x", a)
	}
	if a, ok := r.Pop(); !ok || a != 0x100 {
		t.Errorf("Pop = %#x", a)
	}
	// Overflow: oldest entry is dropped.
	r2 := NewRAS(2)
	r2.Push(0x1)
	r2.Push(0x2)
	r2.Push(0x3)
	if a, _ := r2.Pop(); a != 0x3 {
		t.Errorf("overflow pop = %#x, want 0x3", a)
	}
	if a, _ := r2.Pop(); a != 0x2 {
		t.Errorf("overflow pop = %#x, want 0x2", a)
	}
	if _, ok := r2.Pop(); ok {
		t.Errorf("oldest entry should have been dropped on overflow")
	}
	// Degenerate size is clamped to 1.
	if NewRAS(0).entries == nil {
		t.Errorf("NewRAS(0) should still allocate one entry")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x10)
	r.Push(0x20)
	snap := r.Snapshot()
	r.Push(0x30)
	r.Pop()
	r.Pop()
	r.Restore(snap)
	if r.Depth() != 2 {
		t.Fatalf("restored depth = %d", r.Depth())
	}
	if a, _ := r.Pop(); a != 0x20 {
		t.Errorf("restored top = %#x", a)
	}
	// Restoring a mismatched snapshot is ignored.
	other := NewRAS(2).Snapshot()
	before := r.Depth()
	r.Restore(other)
	if r.Depth() != before {
		t.Errorf("mismatched snapshot should be ignored")
	}
}

func TestPredictFallback(t *testing.T) {
	p := MustNew(DefaultConfig())
	pred := p.Predict(0x4000)
	if pred.Hit {
		t.Errorf("cold predictor should not hit")
	}
	if pred.Start != 0x4000 || pred.NumInsts != p.Config().MaxStreamLength {
		t.Errorf("fallback prediction = %+v", pred)
	}
	if pred.Next != 0x4000+isa.Addr(p.Config().MaxStreamLength)*isa.InstBytes {
		t.Errorf("fallback next = %#x", pred.Next)
	}
	if pred.End != EndFallThrough {
		t.Errorf("fallback end = %v", pred.End)
	}
	preds, _, _, fallbacks := p.Stats()
	if preds != 1 || fallbacks != 1 {
		t.Errorf("stats = %d predictions, %d fallbacks", preds, fallbacks)
	}
}

func TestTrainThenPredict(t *testing.T) {
	p := MustNew(DefaultConfig())
	actual := Stream{Start: 0x1000, NumInsts: 12, Next: 0x5000, End: EndBranch}
	p.Train(actual)
	pred := p.Predict(0x1000)
	if !pred.Hit {
		t.Fatalf("trained stream should hit")
	}
	if pred.NumInsts != 12 || pred.Next != 0x5000 || pred.End != EndBranch {
		t.Errorf("prediction = %+v", pred)
	}
	// Zero-length training is ignored.
	p.Train(Stream{Start: 0x2000, NumInsts: 0})
	if got := p.Predict(0x2000); got.Hit {
		t.Errorf("zero-length training should not install an entry")
	}
	// Over-long streams are clamped to the maximum length.
	p.Train(Stream{Start: 0x3000, NumInsts: 1000, Next: 0x9999, End: EndBranch})
	got := p.Predict(0x3000)
	if !got.Hit || got.NumInsts != p.Config().MaxStreamLength || got.End != EndFallThrough {
		t.Errorf("clamped prediction = %+v", got)
	}
}

func TestTrainingHysteresis(t *testing.T) {
	p := MustNew(DefaultConfig())
	a := Stream{Start: 0x1000, NumInsts: 10, Next: 0x2000, End: EndBranch}
	b := Stream{Start: 0x1000, NumInsts: 6, Next: 0x3000, End: EndBranch}
	// Train a twice (confidence 2), then b once: the prediction should still
	// be a (hysteresis), then after enough b trainings it flips to b.
	p.Train(a)
	p.Train(a)
	p.Train(b)
	if pred := p.Predict(0x1000); pred.Next != 0x2000 {
		t.Errorf("prediction flipped too early: %+v", pred)
	}
	p.Train(b)
	p.Train(b)
	p.Train(b)
	if pred := p.Predict(0x1000); pred.Next != 0x3000 {
		t.Errorf("prediction should have flipped to b: %+v", pred)
	}
}

func TestCallReturnUsesRAS(t *testing.T) {
	p := MustNew(DefaultConfig())
	// Stream A ends in a call to 0x8000; stream B (the callee) ends in a
	// return whose target should come from the RAS.
	callStream := Stream{Start: 0x1000, NumInsts: 4, Next: 0x8000, End: EndCall}
	retStream := Stream{Start: 0x8000, NumInsts: 6, Next: 0xdead, End: EndReturn}
	p.Train(callStream)
	p.Train(retStream)

	predCall := p.Predict(0x1000)
	if !predCall.Hit || predCall.End != EndCall {
		t.Fatalf("call prediction = %+v", predCall)
	}
	// The RAS now holds the return address (instruction after the call).
	wantRet := predCall.EndPC() + isa.InstBytes
	predRet := p.Predict(0x8000)
	if !predRet.Hit || predRet.End != EndReturn {
		t.Fatalf("return prediction = %+v", predRet)
	}
	if !predRet.UsedRAS || predRet.Next != wantRet {
		t.Errorf("return should use RAS: got next %#x, want %#x (usedRAS=%v)",
			predRet.Next, wantRet, predRet.UsedRAS)
	}
	// With an empty RAS the trained next address is used as-is.
	p2 := MustNew(DefaultConfig())
	p2.Train(retStream)
	pr := p2.Predict(0x8000)
	if pr.UsedRAS || pr.Next != 0xdead {
		t.Errorf("empty-RAS return prediction = %+v", pr)
	}
}

func TestHistoryDistinguishesPaths(t *testing.T) {
	// The same stream start behaves differently depending on the preceding
	// stream; the second-level table should learn both behaviours.
	p := MustNew(DefaultConfig())
	pathA := isa.Addr(0x100)
	pathB := isa.Addr(0x900)
	target := isa.Addr(0x5000)

	run := func(prev isa.Addr, actual Stream) Prediction {
		// Establish history: predict the predecessor stream first.
		p.Predict(prev)
		pred := p.Predict(target)
		p.Train(actual)
		return pred
	}
	streamAfterA := Stream{Start: target, NumInsts: 8, Next: 0x6000, End: EndBranch}
	streamAfterB := Stream{Start: target, NumInsts: 20, Next: 0x7000, End: EndBranch}

	// Warm up both paths several times.
	for i := 0; i < 12; i++ {
		run(pathA, streamAfterA)
		run(pathB, streamAfterB)
	}
	// After warm-up, at least one of the paths should be predicted from the
	// second level with the path-specific behaviour.
	p.Predict(pathA)
	predA := p.Predict(target)
	p.Predict(pathB)
	predB := p.Predict(target)
	if predA.Next == predB.Next {
		t.Logf("note: second level did not separate paths (predA=%+v predB=%+v)", predA, predB)
	}
	if !predA.Hit || !predB.Hit {
		t.Errorf("both warmed-up predictions should hit")
	}
}

func TestHistorySnapshotRecover(t *testing.T) {
	p := MustNew(DefaultConfig())
	h0 := p.HistorySnapshot()
	p.Predict(0x1000)
	p.Predict(0x2000)
	if p.HistorySnapshot() == h0 {
		t.Errorf("history should change after predictions")
	}
	p.RecoverHistory(h0)
	if p.HistorySnapshot() != h0 {
		t.Errorf("RecoverHistory did not restore the value")
	}
}

// TestRepeatedLoopIsLearnedPerfectly: a steady loop (same stream over and
// over) must reach 100% prediction accuracy after the first iteration.
func TestRepeatedLoopIsLearnedPerfectly(t *testing.T) {
	p := MustNew(DefaultConfig())
	loop := Stream{Start: 0x2000, NumInsts: 16, Next: 0x2000, End: EndBranch}
	p.Train(loop)
	correct := 0
	const iters = 100
	for i := 0; i < iters; i++ {
		pred := p.Predict(0x2000)
		if pred.Hit && pred.NumInsts == loop.NumInsts && pred.Next == loop.Next {
			correct++
		}
		p.Train(loop)
	}
	if correct != iters {
		t.Errorf("loop prediction accuracy %d/%d, want perfect", correct, iters)
	}
}

// TestPredictorAccuracyImprovesWithTraining: on a synthetic program with a
// few alternating streams, a trained predictor must beat the untrained
// fallback by a wide margin.
func TestPredictorAccuracyImprovesWithTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Program: 8 streams, mostly deterministic successors, 10% noise on one.
	type node struct {
		s    Stream
		next []int
	}
	nodes := make([]node, 8)
	for i := range nodes {
		nodes[i].s = Stream{
			Start:    isa.Addr(0x1000 + i*0x400),
			NumInsts: 8 + i,
			End:      EndBranch,
		}
	}
	for i := range nodes {
		nodes[i].next = []int{(i + 1) % len(nodes)}
	}
	nodes[3].next = []int{4, 0} // the noisy one

	p := MustNew(DefaultConfig())
	cur := 0
	correct, total := 0, 0
	for step := 0; step < 5000; step++ {
		n := nodes[cur]
		succIdx := n.next[0]
		if len(n.next) > 1 && rng.Float64() < 0.10 {
			succIdx = n.next[1]
		}
		actual := n.s
		actual.Next = nodes[succIdx].s.Start
		pred := p.Predict(actual.Start)
		if step > 500 { // measure after warm-up
			total++
			if pred.Hit && pred.NumInsts == actual.NumInsts && pred.Next == actual.Next {
				correct++
			}
		}
		p.Train(actual)
		cur = succIdx
	}
	acc := float64(correct) / float64(total)
	if acc < 0.80 {
		t.Errorf("trained accuracy %.2f, want >= 0.80", acc)
	}
}

// TestPredictionAlwaysWellFormed: whatever the input address and training
// history, predictions have positive length within the configured maximum
// and a non-zero successor.
func TestPredictionAlwaysWellFormed(t *testing.T) {
	p := MustNew(Config{FirstLevelEntries: 64, SecondLevelEntries: 128, RASEntries: 8, MaxStreamLength: 32})
	f := func(rawPC uint32, rawLen uint8, rawNext uint32, cls uint8) bool {
		pc := isa.Addr(rawPC) &^ 3
		next := isa.Addr(rawNext) &^ 3
		p.Train(Stream{Start: pc, NumInsts: int(rawLen%70) + 1, Next: next, End: EndClass(cls % 5)})
		pred := p.Predict(pc)
		if pred.NumInsts <= 0 || pred.NumInsts > 32 {
			return false
		}
		if pred.Start != pc {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestRASDepthBoundedProperty: RAS depth never exceeds its capacity and
// never goes negative, for any push/pop sequence.
func TestRASDepthBoundedProperty(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewRAS(8)
		for i, push := range ops {
			if push {
				r.Push(isa.Addr(i * 4))
			} else {
				r.Pop()
			}
			if r.Depth() < 0 || r.Depth() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReleaseRecyclesZeroedTables: a predictor released after training hands
// its stream tables to the next predictor of the same size, which predicts
// as a cold one does; a second release is a no-op, so the tables go to one
// predictor only.
func TestReleaseRecyclesZeroedTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FirstLevelEntries, cfg.SecondLevelEntries = 96, 160 // sizes no other test releases
	p := MustNew(cfg)
	for pc := isa.Addr(0x1000); pc < 0x3000; pc += 0x40 {
		p.Train(Stream{Start: pc, NumInsts: 5, Next: pc + 0x40, End: EndJump})
	}
	if got := p.Predict(0x1000); !got.Hit {
		t.Fatal("trained predictor misses")
	}
	first, second := &p.first[0], &p.second[0]
	p.Release()
	p.Release()
	if p.first != nil || p.second != nil {
		t.Fatal("Release left the predictor's tables in place")
	}
	a, b := MustNew(cfg), MustNew(cfg)
	if &a.first[0] != first || &a.second[0] != second {
		t.Fatal("the next predictor of the same size did not reuse the released tables")
	}
	if &b.first[0] == first || &b.second[0] == second {
		t.Fatal("a double release handed one table to two predictors")
	}
	for _, tab := range [][]entry{a.first, a.second} {
		for i, e := range tab {
			if e != (entry{}) {
				t.Fatalf("recycled entry %d not zeroed: %+v", i, e)
			}
		}
	}
	if got := a.Predict(0x1000); got.Hit {
		t.Fatal("a predictor on recycled tables does not start cold")
	}
}
