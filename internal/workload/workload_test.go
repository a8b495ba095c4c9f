package workload

import (
	"math"
	"sort"
	"strings"
	"testing"

	"clgp/internal/isa"
	"clgp/internal/trace"
)

func TestBuiltinProfilesAreValid(t *testing.T) {
	profiles := Profiles()
	if len(profiles) != 12 {
		t.Fatalf("expected 12 SPECint2000 profiles, got %d", len(profiles))
	}
	seen := make(map[string]bool)
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile name %s", p.Name)
		}
		seen[p.Name] = true
	}
	// Paper order (Figure 6).
	wantOrder := []string{"gzip", "vpr", "gcc", "mcf", "crafty", "parser",
		"eon", "perlbmk", "gap", "vortex", "bzip2", "twolf"}
	names := ProfileNames()
	for i, w := range wantOrder {
		if names[i] != w {
			t.Errorf("profile %d = %s, want %s", i, names[i], w)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("gcc")
	if err != nil || p.Name != "gcc" {
		t.Errorf("ProfileByName(gcc) = %+v, %v", p.Name, err)
	}
	if _, err := ProfileByName("nonexistent"); err == nil {
		t.Errorf("unknown profile should error")
	}
}

func TestProfileValidateErrors(t *testing.T) {
	base, _ := ProfileByName("gzip")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.HotCodeKB = 0 },
		func(p *Profile) { p.FuncBlocks = 2 },
		func(p *Profile) { p.AvgBlockInsts = 1 },
		func(p *Profile) { p.LoopTakenBias = 1.5 },
		func(p *Profile) { p.NoisyBranchFrac = -0.1 },
		func(p *Profile) { p.LoadFrac = 0.6; p.StoreFrac = 0.5 },
		func(p *Profile) { p.DataFootprintKB = 0 },
		func(p *Profile) { p.SkewFactor = -1 },
	}
	for i, mutate := range cases {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

// TestProfileValidateAddressSpace: the in-memory trace holds 32-bit
// addresses, so Validate rejects a profile whose data segment or code
// could reach 2^32, and accepts one whose data segment ends exactly there.
func TestProfileValidateAddressSpace(t *testing.T) {
	base, _ := ProfileByName("gcc")
	const maxDataKB = (1<<32 - int(DataBase)) / 1024
	for _, tc := range []struct {
		name   string
		mutate func(*Profile)
		ok     bool
	}{
		{"data-ends-at-4GB", func(p *Profile) { p.DataFootprintKB = maxDataKB }, true},
		{"data-past-4GB", func(p *Profile) { p.DataFootprintKB = maxDataKB + 1 }, false},
		{"data-overflows-int", func(p *Profile) { p.DataFootprintKB = math.MaxInt }, false},
		{"code-4GB", func(p *Profile) { p.HotCodeKB = 4 << 20 }, false},
		{"leaves-past-4GB", func(p *Profile) { p.LeafFuncs = 1 << 30 }, false},
		{"blocks-past-4GB", func(p *Profile) { p.FuncBlocks = 1 << 30 }, false},
		{"block-length-overflows-int", func(p *Profile) { p.AvgBlockInsts = math.MaxInt }, false},
	} {
		p := base
		tc.mutate(&p)
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	p := base
	p.DataFootprintKB = maxDataKB
	w, err := Generate(p, 20_000, 1)
	if err != nil {
		t.Fatalf("generate with a data segment ending at 4 GB: %v", err)
	}
	if w.Trace.Len() != 20_000 {
		t.Errorf("trace holds %d records, want 20000", w.Trace.Len())
	}
}

// TestProfileValidateImageCap: a profile whose code could pass the program
// image cap fails validation, so BuildImage refuses it before laying out a
// single block. gcc's code bound reaches the cap between HotCodeKB 10626
// and 10627.
func TestProfileValidateImageCap(t *testing.T) {
	p, _ := ProfileByName("gcc")
	p.HotCodeKB = 10626
	if code := maxCodeBytes(p); code > isa.MaxImageBytes {
		t.Fatalf("HotCodeKB 10626: code bound %v above the cap", code)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("profile at the image cap rejected: %v", err)
	}
	p.HotCodeKB = 10627
	if code := maxCodeBytes(p); code <= isa.MaxImageBytes {
		t.Fatalf("HotCodeKB 10627: code bound %v within the cap", code)
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "image cap") {
		t.Errorf("profile past the image cap: Validate = %v", err)
	}
	if _, err := BuildImage(p, 1); err == nil {
		t.Error("BuildImage accepted a profile past the image cap")
	}
}

// TestMaxCodeBytesBoundsLayout: the bound Validate checks code placement
// with covers the image every builtin profile lays out.
func TestMaxCodeBytesBoundsLayout(t *testing.T) {
	for _, p := range Profiles() {
		for seed := int64(1); seed <= 3; seed++ {
			dict, err := BuildImage(p, seed)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			blocks := dict.Blocks()
			hi := blocks[len(blocks)-1].LastPC()
			if got, bound := float64(hi+isa.InstBytes-CodeBase), maxCodeBytes(p); got > bound {
				t.Errorf("%s seed %d: code spans %v bytes, above the %v bound", p.Name, seed, got, bound)
			}
		}
	}
}

func TestGenerateArgumentValidation(t *testing.T) {
	p, _ := ProfileByName("gzip")
	if _, err := Generate(p, 0, 1); err == nil {
		t.Errorf("zero instructions should error")
	}
	if _, err := Generate(p, -5, 1); err == nil {
		t.Errorf("negative instructions should error")
	}
	bad := p
	bad.HotCodeKB = 0
	if _, err := Generate(bad, 1000, 1); err == nil {
		t.Errorf("invalid profile should error")
	}
}

// mustGenerate is Generate, failing the test on error.
func mustGenerate(t *testing.T, p Profile, numInsts int, seed int64) *Workload {
	t.Helper()
	w, err := Generate(p, numInsts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateDeterminism(t *testing.T) {
	p, _ := ProfileByName("vpr")
	w1 := mustGenerate(t, p, 20000, 77)
	w2 := mustGenerate(t, p, 20000, 77)
	if w1.Trace.Len() != w2.Trace.Len() {
		t.Fatalf("lengths differ: %d vs %d", w1.Trace.Len(), w2.Trace.Len())
	}
	for i := 0; i < w1.Trace.Len(); i++ {
		if w1.Trace.At(i) != w2.Trace.At(i) {
			t.Fatalf("record %d differs: %+v vs %+v", i, w1.Trace.At(i), w2.Trace.At(i))
		}
	}
	// A different seed must (with overwhelming probability) give a different
	// dynamic path.
	w3 := mustGenerate(t, p, 20000, 78)
	same := true
	for i := 0; i < 20000; i++ {
		if w1.Trace.At(i) != w3.Trace.At(i) {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced identical traces")
	}
}

// TestTraceConsistentWithDictionary checks that the dynamic trace is a valid
// walk of the static program: every PC is a known static instruction, every
// record's target matches the instruction semantics, and consecutive records
// are linked by the Target field.
func TestTraceConsistentWithDictionary(t *testing.T) {
	for _, name := range []string{"gzip", "gcc", "mcf", "eon"} {
		p, _ := ProfileByName(name)
		w := mustGenerate(t, p, 30000, 3)
		d := w.Dict
		tr := w.Trace
		for i := 0; i < tr.Len(); i++ {
			r := tr.At(i)
			si := d.Inst(r.PC)
			if si == nil {
				t.Fatalf("%s: record %d PC %#x not in dictionary", name, i, r.PC)
			}
			switch si.Class {
			case isa.OpBranch:
				if r.Taken && r.Target != si.Target {
					t.Fatalf("%s: taken branch at %#x goes to %#x, static target %#x", name, r.PC, r.Target, si.Target)
				}
				if !r.Taken && r.Target != si.FallThrough() {
					t.Fatalf("%s: not-taken branch at %#x goes to %#x", name, r.PC, r.Target)
				}
			case isa.OpJump, isa.OpCall:
				if !r.Taken || r.Target != si.Target {
					t.Fatalf("%s: %v at %#x target %#x, want %#x", name, si.Class, r.PC, r.Target, si.Target)
				}
			case isa.OpReturn:
				if !r.Taken {
					t.Fatalf("%s: return at %#x not marked taken", name, r.PC)
				}
			default:
				if r.Taken || r.Target != si.FallThrough() {
					t.Fatalf("%s: sequential instruction at %#x has target %#x", name, r.PC, r.Target)
				}
			}
			if si.Class.IsMem() && r.EffAddr == 0 {
				t.Fatalf("%s: memory instruction at %#x has no effective address", name, r.PC)
			}
			if !si.Class.IsMem() && r.EffAddr != 0 {
				t.Fatalf("%s: non-memory instruction at %#x has an effective address", name, r.PC)
			}
			if i+1 < tr.Len() && tr.At(i+1).PC != r.Target {
				t.Fatalf("%s: record %d target %#x but next PC is %#x", name, i, r.Target, tr.At(i+1).PC)
			}
		}
	}
}

// TestStaticFootprintMatchesProfile checks that the generated code size is
// close to the profile's HotCodeKB target (within a factor accounting for
// the driver and leaf functions).
func TestStaticFootprintMatchesProfile(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "gcc", "eon", "vortex"} {
		p, _ := ProfileByName(name)
		w := mustGenerate(t, p, 1000, 1)
		insts := 0
		for _, bb := range w.Dict.Blocks() {
			insts += len(bb.Insts)
		}
		codeKB := float64(insts*isa.InstBytes) / 1024
		if codeKB < float64(p.HotCodeKB)*0.8 {
			t.Errorf("%s: static code %.1fKB, want >= %.1fKB", name, codeKB, float64(p.HotCodeKB)*0.8)
		}
		if codeKB > float64(p.HotCodeKB)*2.0+4 {
			t.Errorf("%s: static code %.1fKB, want <= %.1fKB", name, codeKB, float64(p.HotCodeKB)*2.0+4)
		}
	}
}

// dynamicLineFootprint returns the number of distinct 64-byte code lines
// touched by the trace.
func dynamicLineFootprint(tr *trace.MemTrace) int {
	lines := make(map[isa.Addr]bool)
	for i := 0; i < tr.Len(); i++ {
		lines[isa.LineAddr(tr.At(i).PC, 64)] = true
	}
	return len(lines)
}

// TestDynamicFootprintOrdering: small-footprint benchmarks (gzip, mcf,
// bzip2) must touch far fewer instruction lines than large-footprint ones
// (gcc, eon), since that contrast is what makes the paper's cache-size sweep
// meaningful.
func TestDynamicFootprintOrdering(t *testing.T) {
	const n = 150000
	foot := func(name string) int {
		p, _ := ProfileByName(name)
		return dynamicLineFootprint(mustGenerate(t, p, n, 11).Trace)
	}
	gzip := foot("gzip")
	mcf := foot("mcf")
	gcc := foot("gcc")
	eon := foot("eon")
	if gzip >= gcc/3 {
		t.Errorf("gzip dynamic footprint (%d lines) should be much smaller than gcc (%d lines)", gzip, gcc)
	}
	if mcf >= gcc/3 {
		t.Errorf("mcf dynamic footprint (%d lines) should be much smaller than gcc (%d lines)", mcf, gcc)
	}
	if eon < gzip*3 {
		t.Errorf("eon dynamic footprint (%d lines) should be much larger than gzip (%d lines)", eon, gzip)
	}
	// gzip's hot code should fit within a few KB (its profile target is 3KB).
	if gzip*64 > 8*1024 {
		t.Errorf("gzip dynamic footprint %d bytes, expected to fit in ~8KB", gzip*64)
	}
	// gcc should overflow a 16KB cache to make the large-cache end of the
	// sweep interesting.
	if gcc*64 < 24*1024 {
		t.Errorf("gcc dynamic footprint %d bytes, expected to exceed 24KB", gcc*64)
	}
}

// TestBranchCompositionPerProfile: the trace's conditional-branch frequency
// and taken rates must be in plausible ranges, and noisier profiles must
// have a larger fraction of weakly-biased executed branches.
func TestBranchCompositionPerProfile(t *testing.T) {
	const n = 80000
	stats := func(name string) (branchFrac, takenRate float64) {
		p, _ := ProfileByName(name)
		w := mustGenerate(t, p, n, 5)
		branches, taken := 0, 0
		for i := 0; i < w.Trace.Len(); i++ {
			r := w.Trace.At(i)
			si := w.Dict.Inst(r.PC)
			if si.Class == isa.OpBranch {
				branches++
				if r.Taken {
					taken++
				}
			}
		}
		return float64(branches) / float64(n), float64(taken) / float64(branches)
	}
	for _, name := range []string{"gzip", "gcc", "twolf"} {
		bf, tr := stats(name)
		if bf < 0.05 || bf > 0.35 {
			t.Errorf("%s: conditional branch fraction %.3f out of plausible range", name, bf)
		}
		if tr < 0.2 || tr > 0.9 {
			t.Errorf("%s: taken rate %.3f out of plausible range", name, tr)
		}
	}
}

// TestMemoryInstructionFractions: loads/stores appear at roughly the
// profile's configured rate.
func TestMemoryInstructionFractions(t *testing.T) {
	p, _ := ProfileByName("gcc")
	w := mustGenerate(t, p, 60000, 9)
	loads, stores := 0, 0
	for i := 0; i < w.Trace.Len(); i++ {
		switch w.Dict.Inst(w.Trace.At(i).PC).Class {
		case isa.OpLoad:
			loads++
		case isa.OpStore:
			stores++
		}
	}
	loadFrac := float64(loads) / float64(w.Trace.Len())
	storeFrac := float64(stores) / float64(w.Trace.Len())
	if loadFrac < p.LoadFrac*0.5 || loadFrac > p.LoadFrac*1.5 {
		t.Errorf("load fraction %.3f, profile %.3f", loadFrac, p.LoadFrac)
	}
	if storeFrac < p.StoreFrac*0.4 || storeFrac > p.StoreFrac*1.6 {
		t.Errorf("store fraction %.3f, profile %.3f", storeFrac, p.StoreFrac)
	}
}

// TestCallReturnBalance: calls and returns are approximately balanced and
// the call stack in the trace never "underflows" into garbage (returns with
// an empty stack go back to the driver, which is inside the code image).
func TestCallReturnBalance(t *testing.T) {
	p, _ := ProfileByName("eon") // call-heavy profile
	w := mustGenerate(t, p, 80000, 13)
	calls, rets := 0, 0
	for i := 0; i < w.Trace.Len(); i++ {
		switch w.Dict.Inst(w.Trace.At(i).PC).Class {
		case isa.OpCall:
			calls++
		case isa.OpReturn:
			rets++
		}
	}
	if calls == 0 || rets == 0 {
		t.Fatalf("eon should execute calls (%d) and returns (%d)", calls, rets)
	}
	diff := calls - rets
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.2*float64(calls)+maxCallDepth {
		t.Errorf("calls (%d) and returns (%d) badly unbalanced", calls, rets)
	}
}

// TestDataAddressesWithinFootprint: every effective address falls inside the
// profile's data segment.
func TestDataAddressesWithinFootprint(t *testing.T) {
	p, _ := ProfileByName("mcf")
	w := mustGenerate(t, p, 40000, 21)
	limit := DataBase + isa.Addr(p.DataFootprintKB)*1024
	for i := 0; i < w.Trace.Len(); i++ {
		r := w.Trace.At(i)
		if r.EffAddr == 0 {
			continue
		}
		if r.EffAddr < DataBase || r.EffAddr >= limit {
			t.Fatalf("effective address %#x outside data segment [%#x, %#x)", r.EffAddr, DataBase, limit)
		}
	}
}

// TestBranchOutcomesHistoryCorrelated: branch directions must carry the
// structure predictors exploit — biased forward branches streak (positive
// lag-1 correlation) and loop back-edges run stable trip counts — while
// remaining deterministic per seed (covered by TestGenerateDeterminism).
func TestBranchOutcomesHistoryCorrelated(t *testing.T) {
	// twolf matters here: its ForwardTakenBias (0.40) is close to 0.5, and a
	// bias-derived noisy classification would silently fall back to i.i.d.
	// for every predictable forward branch of the profile — the planner's
	// Noisy flag, not the bias value, must drive the behaviour.
	for _, name := range []string{"gcc", "twolf"} {
		t.Run(name, func(t *testing.T) { checkBranchCorrelation(t, name) })
	}
}

func checkBranchCorrelation(t *testing.T, profile string) {
	p, _ := ProfileByName(profile)
	w := mustGenerate(t, p, 80000, 17)
	driver := w.Dict.Entry() // driver guards are i.i.d. by design; skip them

	outcomes := make(map[isa.Addr][]bool)
	for i := 0; i < w.Trace.Len(); i++ {
		r := w.Trace.At(i)
		si := w.Dict.Inst(r.PC)
		if si.Class != isa.OpBranch || r.PC >= driver {
			continue
		}
		outcomes[r.PC] = append(outcomes[r.PC], r.Taken)
	}

	// Biased forward branches: P(taken | prev taken) must exceed
	// P(taken | prev not-taken) by a wide margin in aggregate.
	var tt, tPrefix, nt, nPrefix int
	// Loop back-edges: taken-run lengths must cluster within ±1 of the
	// branch's median run.
	runsTotal, runsNearMedian := 0, 0
	for pc, seq := range outcomes {
		si := w.Dict.Inst(pc)
		if len(seq) < 40 {
			continue
		}
		switch {
		case si.Target < si.PC:
			runs := takenRuns(seq)
			if len(runs) < 5 {
				continue
			}
			m := medianInt(runs)
			for _, r := range runs {
				runsTotal++
				if r >= m-1 && r <= m+1 {
					runsNearMedian++
				}
			}
		case !si.Noisy:
			for i := 1; i < len(seq); i++ {
				if seq[i-1] {
					tPrefix++
					if seq[i] {
						tt++
					}
				} else {
					nPrefix++
					if seq[i] {
						nt++
					}
				}
			}
		}
	}

	if tPrefix < 100 || nPrefix < 100 {
		t.Fatalf("too few forward-branch transitions to measure (%d, %d)", tPrefix, nPrefix)
	}
	pTT := float64(tt) / float64(tPrefix)
	pTN := float64(nt) / float64(nPrefix)
	if diff := pTT - pTN; diff < 0.4 {
		t.Errorf("forward branches not history-correlated: P(T|T)=%.3f P(T|N)=%.3f (diff %.3f, want >= 0.4)",
			pTT, pTN, diff)
	}
	if runsTotal < 50 {
		t.Fatalf("too few loop runs to measure (%d)", runsTotal)
	}
	if frac := float64(runsNearMedian) / float64(runsTotal); frac < 0.7 {
		t.Errorf("loop trip counts unstable: only %.0f%% of %d runs within ±1 of their branch median",
			100*frac, runsTotal)
	}
}

// takenRuns returns the lengths of maximal runs of taken outcomes that are
// bounded by not-taken outcomes on both sides (complete loop visits).
func takenRuns(seq []bool) []int {
	var runs []int
	run, inRun := 0, false
	for _, taken := range seq {
		if taken {
			if inRun {
				run++
			}
			continue
		}
		if inRun && run > 0 {
			runs = append(runs, run)
		}
		run, inRun = 0, true
	}
	return runs
}

func medianInt(xs []int) int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[len(s)/2]
}
