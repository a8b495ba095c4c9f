package sim

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/workload"
)

func benchWorkload(t testing.TB, insts int, seed int64) *workload.Workload {
	t.Helper()
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(p, insts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// grid16 is the four engines over four L1 sizes at 90nm, no L0.
func grid16(w *workload.Workload) []Job {
	var jobs []Job
	for _, eng := range []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP} {
		for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10} {
			cfg := core.Config{Tech: cacti.Tech90, L1ISize: size, Engine: eng}
			cfg.Name = JobName(w.Name, eng, cfg.Tech, size, false, false)
			jobs = append(jobs, Job{Config: cfg, Workload: w})
		}
	}
	return jobs
}

func TestParallelMatchesSerial(t *testing.T) {
	w := benchWorkload(t, 12_000, 11)
	jobs := grid16(w)
	if len(jobs) != 16 {
		t.Fatalf("grid has %d jobs, want 16", len(jobs))
	}
	serial := Runner{Workers: 1}.Run(jobs)
	parallel := Runner{Workers: 4}.Run(jobs)
	for i := range jobs {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %s failed: serial=%v parallel=%v", jobs[i].Config.Name, s.Err, p.Err)
		}
		if s.Stats.Cycles != p.Stats.Cycles || s.Stats.Committed != p.Stats.Committed ||
			s.Stats.Mispredictions != p.Stats.Mispredictions {
			t.Errorf("job %s diverged between serial and parallel execution:\nserial   %+v\nparallel %+v",
				jobs[i].Config.Name, s.Stats, p.Stats)
		}
	}
}

func TestSummarise(t *testing.T) {
	w := benchWorkload(t, 8_000, 12)
	jobs := grid16(w)[:4]
	start := time.Now()
	results := Runner{Workers: 2}.Run(jobs)
	sum := Summarise(results, time.Since(start))
	if sum.Sims != 4 || sum.Failed != 0 {
		t.Fatalf("summary %+v, want 4 successful sims", sum)
	}
	if sum.TotalCycles == 0 || sum.CyclesPerSec() <= 0 {
		t.Errorf("degenerate throughput: %+v", sum)
	}

}

// TestSweepParallelSpeedup demonstrates the wall-clock win of the parallel
// driver on a 16-config grid. It needs real hardware parallelism, so it is
// skipped on small machines (the acceptance criterion is conditioned on
// GOMAXPROCS >= 4) and in -short mode.
func TestSweepParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping speedup measurement in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need GOMAXPROCS >= 4 for the speedup bound, have %d", runtime.GOMAXPROCS(0))
	}
	w := benchWorkload(t, 60_000, 13)
	jobs := grid16(w)

	start := time.Now()
	serialRes := Runner{Workers: 1}.Run(jobs)
	serialWall := time.Since(start)

	start = time.Now()
	parRes := Runner{}.Run(jobs)
	parWall := time.Since(start)

	for i := range jobs {
		if serialRes[i].Err != nil || parRes[i].Err != nil {
			t.Fatalf("job %s failed", jobs[i].Config.Name)
		}
	}
	speedup := serialWall.Seconds() / parWall.Seconds()
	t.Logf("serial %v, parallel %v (%d workers): speedup %.2fx",
		serialWall, parWall, Runner{}.EffectiveWorkers(), speedup)
	// The grid is embarrassingly parallel; on >= 4 cores, 3x is comfortably
	// reachable. Use a slightly softer bound to stay robust against noisy
	// shared CI machines.
	if speedup < 2.5 {
		t.Errorf("parallel sweep speedup %.2fx below expected bound", speedup)
	}
}

// TestSummariseOrderInvariant: Summarise must not depend on result order —
// the property shard merging relies on, since shards complete in arbitrary
// order and resumed sweeps interleave checkpointed and fresh results.
func TestSummariseOrderInvariant(t *testing.T) {
	w := benchWorkload(t, 6_000, 21)
	jobs := grid16(w)[:6]
	results := Runner{Workers: 2}.Run(jobs)
	// Inject one synthetic failure so the Failed counter is exercised too.
	results = append(results, Result{Name: "synthetic-failure", Err: errors.New("boom")})

	wall := 3 * time.Second
	want := Summarise(results, wall)
	if want.Sims != 6 || want.Failed != 1 {
		t.Fatalf("unexpected base summary %+v", want)
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Result(nil), results...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := Summarise(shuffled, wall); got != want {
			t.Fatalf("trial %d: summary depends on result order:\nwant %+v\ngot  %+v", trial, want, got)
		}
	}
}

// TestJobNameVariants: the canonical job label must disambiguate every grid
// dimension that can coexist in one sweep.
func TestJobNameVariants(t *testing.T) {
	names := map[string]bool{}
	for _, l0 := range []bool{false, true} {
		for _, ideal := range []bool{false, true} {
			n := JobName("gcc", core.EngineCLGP, cacti.Tech90, 2<<10, l0, ideal)
			if names[n] {
				t.Errorf("duplicate label %q", n)
			}
			names[n] = true
		}
	}
	if n := JobName("gcc", core.EngineNone, cacti.Tech90, 1<<10, false, true); n != "gcc/ideal/0.09um/L1=1KB" {
		t.Errorf("ideal baseline label = %q", n)
	}
	if n := JobName("gcc", core.EngineCLGP, cacti.Tech45, 256, true, false); n != "gcc/clgp+l0/0.045um/L1=256B" {
		t.Errorf("clgp+l0 label = %q", n)
	}
}
