package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"clgp/internal/stats"
	"clgp/internal/telemetry"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, permille int
		want        float64
	}{
		{100, 500, 50}, {100, 900, 90}, {100, 990, 99}, {100, 999, 100},
		{10, 900, 9}, {10, 950, 10}, {109, 900, 99}, {1, 500, 1}, {3, 500, 2},
	} {
		if got := percentile(sortedCopy(seq(tc.n)), tc.permille); got != tc.want {
			t.Errorf("%s of 1..%d = %g, want %g", formatPermille(tc.permille), tc.n, got, tc.want)
		}
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    int // per mille; 0 = nothing reportable
		wantVal float64
	}{
		{19, 0, 0},     // the median has 9 beyond it
		{20, 500, 10},  // exactly 10 beyond the median
		{99, 500, 50},  // p90 has 9 beyond
		{100, 900, 90}, // p90 has 10 beyond, p95 5
		{200, 950, 190},
		{1000, 990, 990},
		{10000, 999, 9990},
	} {
		p, v, ok := tail(seq(tc.n))
		if tc.want == 0 {
			if ok {
				t.Errorf("n=%d: reported %s, want nothing", tc.n, formatPermille(p))
			}
			continue
		}
		if !ok || p != tc.want || v != tc.wantVal {
			t.Errorf("n=%d: tail = %s %g (ok %v), want %s %g", tc.n, formatPermille(p), v, ok, formatPermille(tc.want), tc.wantVal)
		}
	}
	if formatPermille(999) != "p99.9" || formatPermille(900) != "p90" {
		t.Errorf("formatPermille: %s %s", formatPermille(999), formatPermille(900))
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(xs, n=4); these expectations are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{3.5, 1, 2}, 1, 3.5},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %g", m)
	}
}

func sampleResults() *stats.Results {
	r := &stats.Results{Name: "gcc/clgp", Cycles: 1000, Committed: 400, Fetched: 700,
		Branches: 50, Mispredictions: 7, L1Accesses: 300, L1Misses: 30, PrefetchesIssued: 12,
		Telemetry: &telemetry.Snapshot{SkippedCycles: 600}}
	r.FetchSources[stats.SrcPreBuffer] = 5
	r.CycleAccounts[stats.CycleCommit] = 350
	r.CycleAccounts[stats.CycleMemory] = 650
	return r
}

func TestDigestStable(t *testing.T) {
	a, err := resultDigest(sampleResults())
	if err != nil {
		t.Fatal(err)
	}
	// Label and simulator-speed telemetry are not part of the outcome.
	r := sampleResults()
	r.Name = "renamed"
	r.Telemetry = &telemetry.Snapshot{SkippedCycles: 1, FastForwards: 9}
	b, err := resultDigest(r)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("digest changed with Name/Telemetry: %s vs %s", a, b)
	}
	// The committed digests in digests.json were produced by this function;
	// a change to the hashing invalidates all of them.
	if want := "44cabffe7dc6a297"; a != want {
		t.Errorf("digest of the sample results = %s, want %s", a, want)
	}
}

func TestDigestSensitiveToEveryCounter(t *testing.T) {
	base, err := resultDigest(sampleResults())
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(stats.Results{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Name" || f.Name == "Telemetry" {
			continue
		}
		r := sampleResults()
		v := reflect.ValueOf(r).Elem().Field(i)
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Array:
			last := v.Index(v.Len() - 1)
			last.SetUint(last.Uint() + 1)
		default:
			t.Fatalf("field %s has kind %s; extend this test", f.Name, v.Kind())
		}
		got, err := resultDigest(r)
		if err != nil {
			t.Fatal(err)
		}
		if got == base {
			t.Errorf("changing %s left the digest at %s", f.Name, got)
		}
	}
	if _, err := resultDigest(nil); err == nil {
		t.Error("a failed job (nil results) has a digest")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sim_kips", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		ms   metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{1.03, 1.02, 1.04, 1.03, 1.02}, "unchanged"},
		{lower, steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse"},
		{higher, steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "better"},
		{lower, steady, []float64{0.6, 1.4, 0.8, 1.3, 1.0}, "unresolved"},
		// Wide spread, but every run of B is worse than every run of A.
		{lower, steady, []float64{2.0, 3.0, 2.2, 2.9, 2.5}, "worse"},
	} {
		if got, _ := verdict(tc.ms, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v vs %v: %s, want %s", tc.ms.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// tinyScale runs every workload's code path in seconds: a few thousand
// instructions per run, a 2-profile grid at seven L1 sizes (112 points, so a
// sweep pass has ten steps beyond its p90).
var tinyScale = scale{
	runInsts: 4000, interval: 40,
	gridInsts: 2000, gridWarmup: 1000,
	profiles: []string{"gzip", "mcf"},
	sizes:    []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10},
}

func runTiny(t *testing.T, name string, traced bool) (*bench, *runRecord) {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(name, 7, time.Nanosecond, traced, t.TempDir())
	b.scale = tinyScale
	b.calibrate = steadyHost
	rec, err := b.run(w)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b, rec
}

// steadyHost stands in for calibrate in tests: a host always at reference
// speed, so host times are reported unscaled.
func steadyHost(int) float64 { return calRef }

func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			_, rec := runTiny(t, wl.Name, false)
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < rec.N["sets"] {
				t.Fatalf("untraced run: correct %v, %d/%d failed; checks %v", rec.Correct, rec.Failed, rec.Attempted, rec.Checks)
			}
			if _, err := rec.contractResult(spec.EndToEnd); err != nil {
				t.Error(err)
			}
			for _, ms := range spec.EndToEnd {
				if v := rec.Metrics[ms.Name]; !(v > 0) {
					t.Errorf("end-to-end %s = %g; every end-to-end metric must be positive", ms.Name, v)
				}
			}

			b, traced := runTiny(t, wl.Name, true)
			dir := t.TempDir()
			if err := b.writeTrace(dir, traced); err != nil {
				t.Fatal(err)
			}
			if _, err := traced.contractResult(spec.PerLayer); err != nil {
				t.Error(err)
			}
			for _, f := range []string{wl.Name + ".trace.json", wl.Name + ".layers.json"} {
				if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
					t.Errorf("traced run wrote no %s: %v", f, err)
				}
			}
			if traced.Coverage <= 0 || traced.Coverage > 1 {
				t.Errorf("span coverage %g outside (0, 1]", traced.Coverage)
			}
			// The deterministic counts repeat exactly between the two runs.
			for name := range exactMetrics {
				u, okU := rec.Metrics[name]
				v, okV := traced.Metrics[name]
				if okU && okV && u != v {
					t.Errorf("count %s: %g untraced, %g traced", name, u, v)
				}
			}
		})
	}
}

// A result that disagrees with the committed digest fails every job of its
// pass, and the run reports incorrect.
func TestCommittedDigestMismatchFails(t *testing.T) {
	w, err := newWorkload("run-gcc")
	if err != nil {
		t.Fatal(err)
	}
	b := newBench("run-gcc", 7, time.Nanosecond, false, t.TempDir())
	b.scale = tinyScale
	b.calibrate = steadyHost
	b.expect = []string{"0", "0", "0"}
	rec, err := b.run(w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != rec.Attempted {
		t.Errorf("correct %v, %d of %d failed; want every pass failed", rec.Correct, rec.Failed, rec.Attempted)
	}
}

// A job that fails in every pass is counted every time, not only when its
// set is first observed.
func TestRepeatedJobErrorsAllCount(t *testing.T) {
	b := newBench("run-gcc", 7, time.Nanosecond, false, t.TempDir())
	b.sets = make([]setState, 2)
	pass := func(r *stats.Results) passOut {
		return passOut{runs: []jobResults{{names: []string{"job"}, results: []*stats.Results{r}}}}
	}
	for i := 0; i < 3; i++ {
		b.check(0, pass(nil), true)
	}
	if b.failed != 3 || b.attempted != 3 {
		t.Errorf("%d of %d failed, want 3 of 3", b.failed, b.attempted)
	}
	// A later pass that disagrees with the first observation fails too.
	b.check(1, pass(sampleResults()), true)
	changed := sampleResults()
	changed.Cycles++
	b.check(1, pass(changed), true)
	if b.failed != 4 {
		t.Errorf("%d failed after a disagreeing pass, want 4", b.failed)
	}
	// So does the second simulation of one pass (a sweep's restored grid)
	// when it disagrees with the first.
	twice := passOut{runs: append(pass(sampleResults()).runs, pass(changed).runs...)}
	b.check(1, twice, true)
	if b.failed != 5 || b.attempted != 7 {
		t.Errorf("%d of %d failed after a disagreeing second simulation, want 5 of 7", b.failed, b.attempted)
	}
}

// wall_s is the mean over input sets of each set's median pass, so a set
// that happened to run more passes does not weigh more.
func TestWallIsMeanOfSetMedians(t *testing.T) {
	b := newBench("run-gcc", 7, time.Nanosecond, false, t.TempDir())
	b.sets = []setState{
		{walls: []float64{1, 1.2, 1.1}, committed: 1000},
		{walls: []float64{3}, committed: 3000},
	}
	m := b.record().Metrics
	if got := m["wall_s"]; math.Abs(got-2.05) > 1e-12 {
		t.Errorf("wall_s = %g, want 2.05", got)
	}
	if got := m["sim_kips"]; math.Abs(got-2000/2.05/1000) > 1e-12 {
		t.Errorf("sim_kips = %g, want %g", got, 2000/2.05/1000)
	}
}

// A calibration is a positive time, and a host time measured between two
// calibrations at the reference speed is reported unchanged.
func TestCalibration(t *testing.T) {
	for par := 1; par <= 2; par++ {
		if c := calibrate(par); !(c > 0) {
			t.Fatalf("calibrate(%d) = %g", par, c)
		}
	}
	if k := speedScale(calRef, calRef); k != 1 {
		t.Errorf("scale at reference speed = %g, want 1", k)
	}
	// A host at half speed (calibrations take twice as long) halves times.
	if k := speedScale(2*calRef, 2*calRef); math.Abs(k-0.5) > 1e-12 {
		t.Errorf("scale at half speed = %g, want 0.5", k)
	}
}
