package core

import (
	"reflect"
	"strings"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/pipeline"
	"clgp/internal/stats"
	"clgp/internal/workload"
)

// icacheStressProfile is a workload whose hot code footprint (48KB) vastly
// exceeds the small L1 used in the tests, so instruction delivery dominates
// performance — the regime where CLGP pays off.
func icacheStressWorkload(t testing.TB, numInsts int, seed int64) *workload.Workload {
	t.Helper()
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	w, err := workload.Generate(p, numInsts, seed)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return w
}

func runConfig(t testing.TB, cfg Config, w *workload.Workload) *stats.Results {
	t.Helper()
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

func TestEngineRunsAllSchemes(t *testing.T) {
	w := icacheStressWorkload(t, 40_000, 1)
	for _, kind := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
		cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: kind, UseL0: kind != EngineNone}
		r := runConfig(t, cfg, w)
		if r.Committed != uint64(w.Trace.Len()) {
			t.Errorf("%v: committed %d, want %d", kind, r.Committed, w.Trace.Len())
		}
		if r.Cycles == 0 || r.IPC() <= 0 {
			t.Errorf("%v: degenerate run: cycles=%d IPC=%g", kind, r.Cycles, r.IPC())
		}
	}
}

// TestNewEngineRejectsOutsideTable3: a node the paper does not evaluate, or
// an L1 size Table 3 does not list, is a construction error that names the
// value, not a panic and not a run on an invented latency.
func TestNewEngineRejectsOutsideTable3(t *testing.T) {
	w := icacheStressWorkload(t, 2_000, 1)
	for _, tc := range []struct {
		tech cacti.Tech
		size int
		name string
	}{
		{cacti.Tech(0), 2 << 10, "tech(0)"},
		{cacti.Tech(1), 2 << 10, "tech(1)"},
		{cacti.Tech(3), 2 << 10, "tech(3)"},
		{cacti.Tech90, 128, "128 B"},
		{cacti.Tech45, 128 << 10, "131072 B"},
	} {
		cfg := Config{Tech: tc.tech, L1ISize: tc.size, Engine: EngineCLGP, UseL0: true}
		eng, err := NewEngine(cfg, w.Dict, w.Trace)
		if err == nil {
			eng.Release()
			t.Errorf("NewEngine(%v, L1 %d B) succeeded, want an error", tc.tech, tc.size)
		} else if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("NewEngine(%v, L1 %d B) error %q does not name %q", tc.tech, tc.size, err, tc.name)
		}
	}
}

func TestEngineIPCBoundedByCommitWidth(t *testing.T) {
	w := icacheStressWorkload(t, 30_000, 2)
	for _, kind := range []EngineKind{EngineNone, EngineCLGP} {
		cfg := Config{Tech: cacti.Tech90, L1ISize: 64 << 10, Engine: kind}
		width := pipeline.DefaultConfig().Width
		r := runConfig(t, cfg, w)
		if ipc := r.IPC(); ipc > float64(width) {
			t.Errorf("%v: IPC %.3f exceeds commit width %d", kind, ipc, width)
		}
	}
}

func TestEngineIdealICacheIsUpperBound(t *testing.T) {
	w := icacheStressWorkload(t, 30_000, 3)
	base := runConfig(t, Config{Tech: cacti.Tech90, L1ISize: 1 << 10, Engine: EngineNone}, w)
	ideal := runConfig(t, Config{Tech: cacti.Tech90, L1ISize: 1 << 10, Engine: EngineNone, IdealICache: true}, w)
	if ideal.IPC() < base.IPC() {
		t.Errorf("ideal I-cache IPC %.4f below realistic %.4f", ideal.IPC(), base.IPC())
	}
}

func TestCLGPBeatsNoneOnICacheStress(t *testing.T) {
	// Small L1 (1KB) against a 48KB instruction working set: the baseline
	// spends most fetches in the L2, while CLGP prestages lines guided by
	// the CLTQ. This is the paper's central claim in miniature.
	w := icacheStressWorkload(t, 60_000, 4)
	none := runConfig(t, Config{Tech: cacti.Tech90, L1ISize: 1 << 10, Engine: EngineNone}, w)
	clgp := runConfig(t, Config{Tech: cacti.Tech90, L1ISize: 1 << 10, Engine: EngineCLGP, PreBufferEntries: 16}, w)
	if clgp.IPC() <= none.IPC() {
		t.Errorf("CLGP IPC %.4f does not beat EngineNone IPC %.4f", clgp.IPC(), none.IPC())
	}
	if clgp.FetchSources[stats.SrcPreBuffer] == 0 {
		t.Errorf("CLGP served no fetches from the prestage buffer")
	}
	if clgp.PrefetchesIssued == 0 {
		t.Errorf("CLGP issued no prefetches")
	}
}

func TestEngineDeterministic(t *testing.T) {
	cfg := Config{Tech: cacti.Tech45, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	var first *stats.Results
	for i := 0; i < 2; i++ {
		// Regenerate the workload from the same seed each time: the whole
		// pipeline (generation + simulation) must be reproducible.
		w := icacheStressWorkload(t, 25_000, 42)
		r := runConfig(t, cfg, w)
		if first == nil {
			first = r
			continue
		}
		if r.Cycles != first.Cycles || r.Committed != first.Committed ||
			r.Fetched != first.Fetched || r.Mispredictions != first.Mispredictions ||
			r.L1Accesses != first.L1Accesses || r.PrefetchesIssued != first.PrefetchesIssued {
			t.Errorf("run %d diverged: %+v vs %+v", i, r, first)
		}
	}
}

// TestIdealIgnoresL1Size: with an ideal I-cache every fetch is a one-cycle
// hit whatever the L1's size, so the runs at 256 B, 2 KB and 64 KB agree on
// every result but L1Misses. That field still moves, because the ideal
// fetch path looks the line up in, and fills, the sized L1 (for the miss
// count alone), so one ideal run cannot stand in for every size's record.
func TestIdealIgnoresL1Size(t *testing.T) {
	w := icacheStressWorkload(t, 50_000, 2)
	sizes := []int{256, 2 << 10, 64 << 10}
	// gcc, 50K instructions, seed 2.
	const wantCycles = 207_323
	wantMisses := []uint64{8_110, 2_547, 681}
	var first stats.Results
	for i, size := range sizes {
		r := runConfig(t, Config{Tech: cacti.Tech90, L1ISize: size, Engine: EngineNone, IdealICache: true}, w).WithoutTelemetry()
		if r.Cycles != wantCycles || r.L1Misses != wantMisses[i] {
			t.Errorf("L1 %d B: %d cycles, %d L1 misses; want %d, %d", size, r.Cycles, r.L1Misses, wantCycles, wantMisses[i])
		}
		r.Name, r.L1Misses = "", 0
		if i == 0 {
			first = r
		} else if !reflect.DeepEqual(r, first) {
			t.Errorf("ideal run at L1 %d B differs from the one at %d B beyond L1Misses:\n%+v\n%+v", size, sizes[0], r, first)
		}
	}
}

// TestReleaseRecyclesInstructions: an engine built after a release draws
// its instructions from the released engine's slab.
func TestReleaseRecyclesInstructions(t *testing.T) {
	w := icacheStressWorkload(t, 4_000, 5)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	eng := MustNewEngine(cfg, w.Dict, w.Trace)
	if _, err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	old := eng.pool.Get()
	eng.Release()
	next := MustNewEngine(cfg, w.Dict, w.Trace)
	for i := 0; i < next.backend.Config().RUUSize+dispatchQueueCap+next.backend.Config().Width; i++ {
		if next.pool.Get() == old {
			return
		}
	}
	t.Fatal("the next engine's instructions are not the released engine's")
}

// TestReleasedEngineRefusesWork: once an engine has handed its tables back,
// stepping, running, snapshotting and restoring it fail instead of touching
// tables another engine may own, its results stay readable, and a second
// release is a no-op.
func TestReleasedEngineRefusesWork(t *testing.T) {
	w := icacheStressWorkload(t, 4_000, 5)
	eng := MustNewEngine(Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}, w.Dict, w.Trace)
	want, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	eng.Release()
	eng.Release()
	if eng.Step() {
		t.Error("a released engine stepped")
	}
	if _, err := eng.Run(); err == nil {
		t.Error("a released engine ran")
	}
	if _, err := eng.Snapshot(w.Name, 0); err == nil {
		t.Error("a released engine snapshotted")
	}
	fresh := MustNewEngine(eng.Config(), w.Dict, w.Trace)
	fresh.Release()
	if err := fresh.Restore(nil, w.Name, 0); err == nil {
		t.Error("a released engine restored")
	}
	if got := eng.Results(); !reflect.DeepEqual(got.WithoutTelemetry(), want.WithoutTelemetry()) {
		t.Error("results changed on release")
	}
}
