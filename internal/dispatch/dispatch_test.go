package dispatch

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/sim"
)

// testGrid is a small but multi-workload, multi-engine grid: 2 profiles ×
// 2 engines × 2 sizes = 8 jobs over 2 distinct workloads.
func testGrid(t testing.TB) []JobSpec {
	t.Helper()
	specs, err := GridSpecs(GridConfig{
		Profiles: []string{"gzip", "mcf"},
		Insts:    6_000,
		Seed:     7,
		Engines:  []core.EngineKind{core.EngineNone, core.EngineCLGP},
		Sizes:    []int{1 << 10, 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestGridSpecsDeterministicAndUnique(t *testing.T) {
	a := testGrid(t)
	b := testGrid(t)
	if len(a) != 8 {
		t.Fatalf("grid has %d jobs, want 8", len(a))
	}
	if GridHash(a) != GridHash(b) {
		t.Errorf("same grid config produced different hashes")
	}
	names := make(map[string]bool)
	for i, s := range a {
		if s != b[i] {
			t.Errorf("job %d differs between enumerations: %+v vs %+v", i, s, b[i])
		}
		if names[s.Name()] {
			t.Errorf("duplicate job name %q", s.Name())
		}
		names[s.Name()] = true
		if err := s.Validate(); err != nil {
			t.Errorf("job %s invalid: %v", s.Name(), err)
		}
	}
	// The hash must react to any change in the grid.
	mutated := append([]JobSpec(nil), a...)
	mutated[3].Seed++
	if GridHash(mutated) == GridHash(a) {
		t.Errorf("grid hash ignored a seed change")
	}
}

func TestGridSpecsFullPaperGrid(t *testing.T) {
	specs, err := GridSpecs(GridConfig{
		Insts: 1000, Seed: 1,
		L0Variants:   true,
		IncludeIdeal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 12 profiles × (none + 3 engines × {l0 off,on} = 7 variants + ideal) × 9 sizes.
	want := 12 * (7 + 1) * 9
	if len(specs) != want {
		t.Errorf("full paper grid has %d jobs, want %d", len(specs), want)
	}
	profiles := make(map[string]bool)
	for _, s := range specs {
		profiles[s.Profile] = true
	}
	if len(profiles) != 12 {
		t.Errorf("grid covers %d profiles, want 12", len(profiles))
	}
}

func TestPlanShardsDeterministicPartition(t *testing.T) {
	specs := testGrid(t)
	for _, n := range []int{0, 1, 2, 3, 8, 100} {
		a, err := PlanShards(specs, n)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := PlanShards(specs, n)
		if len(a) != len(b) {
			t.Fatalf("n=%d: nondeterministic shard count", n)
		}
		// The shards must partition the grid in order.
		var flat []JobSpec
		for i, sp := range a {
			if sp.ID != i {
				t.Errorf("n=%d: shard %d has id %d", n, i, sp.ID)
			}
			if len(sp.Specs) == 0 {
				t.Errorf("n=%d: empty shard %s", n, sp.Name)
			}
			if sp.Name != b[i].Name {
				t.Errorf("n=%d: nondeterministic shard name %s vs %s", n, sp.Name, b[i].Name)
			}
			flat = append(flat, sp.Specs...)
		}
		if len(flat) != len(specs) {
			t.Fatalf("n=%d: shards hold %d jobs, grid has %d", n, len(flat), len(specs))
		}
		for i := range flat {
			if flat[i] != specs[i] {
				t.Errorf("n=%d: job %d reordered by sharding", n, i)
			}
		}
	}
	// n=0 defaults to one shard per distinct workload (2 here).
	byWorkload, _ := PlanShards(specs, 0)
	if len(byWorkload) != 2 {
		t.Errorf("workload-based plan has %d shards, want 2", len(byWorkload))
	}
}

// statsKey reduces a result to the deterministic fields compared across
// execution strategies.
type statsKey struct {
	cycles, committed, fetched, mispred, prefetches uint64
}

func keyOf(r sim.Result) statsKey {
	return statsKey{
		cycles:     r.Stats.Cycles,
		committed:  r.Stats.Committed,
		fetched:    r.Stats.Fetched,
		mispred:    r.Stats.Mispredictions,
		prefetches: r.Stats.PrefetchesIssued,
	}
}

// runBaseline executes the grid directly through sim.Runner (the PR 1
// single-process path) and returns per-job stats keyed by job name.
func runBaseline(t *testing.T, specs []JobSpec) map[string]statsKey {
	t.Helper()
	cache := newWorkloadCache(nil)
	jobs := make([]sim.Job, len(specs))
	for i, spec := range specs {
		w, err := cache.get(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i], err = spec.SimJob(w)
		if err != nil {
			t.Fatal(err)
		}
	}
	results := sim.Runner{}.Run(jobs)
	out := make(map[string]statsKey, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("baseline job %s failed: %v", r.Name, r.Err)
		}
		out[r.Name] = keyOf(r)
	}
	return out
}

func checkAgainstBaseline(t *testing.T, baseline map[string]statsKey, out *Outcome) {
	t.Helper()
	results := out.Results()
	if len(results) != len(baseline) {
		t.Fatalf("merged %d results, baseline has %d", len(results), len(baseline))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.Name, r.Err)
		}
		want, ok := baseline[r.Name]
		if !ok {
			t.Fatalf("job %s not in baseline", r.Name)
		}
		if got := keyOf(r); got != want {
			t.Errorf("job %s diverged from single-process run: %+v vs %+v", r.Name, got, want)
		}
	}
	sum := out.Summary()
	if sum.Failed != 0 || sum.Sims != len(baseline) {
		t.Errorf("summary %+v, want %d clean sims", sum, len(baseline))
	}
}

// TestInterruptedSweepResumesAndMatchesSingleProcess is the acceptance
// criterion: a sweep "killed" after some shards completed, restarted with
// resume, skips the completed shards and produces per-run stats identical
// to an uninterrupted single-process run of the same grid.
func TestInterruptedSweepResumesAndMatchesSingleProcess(t *testing.T) {
	specs := testGrid(t)
	baseline := runBaseline(t, specs)

	dir := t.TempDir()
	o := &Orchestrator{Store: NewDirStore(dir), Workers: 2}

	// Simulate the interrupted first run: plan the sweep, complete only
	// shards 0 and 2, then "die" before the rest.
	m, err := o.prepare(NewDirStore(dir), specs, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 4 {
		t.Fatalf("planned %d shards, want 4", len(m.Shards))
	}
	for _, id := range []int{0, 2} {
		if _, err := RunShard(NewDirStore(dir), m, id, 2, "", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Leave a stale temp file behind, as a worker killed mid-write would.
	tmp := filepath.Join(dir, ShardsDir, m.Shards[1].Name+".jsonl.tmp")
	if err := os.WriteFile(tmp, []byte("{\"partial\":"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart with resume: completed shards must be skipped, not re-run.
	before0 := shardMtime(t, dir, m.Shards[0])
	out, err := o.Run(specs, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(out.Skipped), fmt.Sprint([]int{0, 2}); got != want {
		t.Errorf("resumed sweep skipped %v, want %v", out.Skipped, want)
	}
	if got, want := fmt.Sprint(out.Ran), fmt.Sprint([]int{1, 3}); got != want {
		t.Errorf("resumed sweep ran %v, want %v", out.Ran, want)
	}
	if after0 := shardMtime(t, dir, m.Shards[0]); !after0.Equal(before0) {
		t.Errorf("resume re-wrote completed shard 0 (%v -> %v)", before0, after0)
	}
	checkAgainstBaseline(t, baseline, out)

	// A second resume finds everything complete and runs nothing.
	out2, err := o.Run(specs, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Ran) != 0 || len(out2.Skipped) != 4 {
		t.Errorf("fully-complete resume ran %v / skipped %v", out2.Ran, out2.Skipped)
	}
	checkAgainstBaseline(t, baseline, out2)

	// A checkpoint planned by the retired lane-fusion mode (bit-identical to
	// per-run execution) carries an extra manifest key. It still resumes:
	// the key is ignored and the missing shard re-runs.
	mpath := filepath.Join(dir, ManifestFile)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte("{"), []byte(`{"fused": true, `), 1)
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ShardsDir, m.Shards[3].Name+".jsonl")); err != nil {
		t.Fatal(err)
	}
	out3, err := o.Run(specs, 4, true)
	if err != nil {
		t.Fatalf("resuming a checkpoint with a retired manifest key: %v", err)
	}
	if got, want := fmt.Sprint(out3.Ran), fmt.Sprint([]int{3}); got != want {
		t.Errorf("legacy-manifest resume ran %v, want %v", out3.Ran, want)
	}
	checkAgainstBaseline(t, baseline, out3)
}

func shardMtime(t *testing.T, dir string, sp ShardPlan) time.Time {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, ShardsDir, sp.Name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.ModTime()
}

// TestShardCountInvariance: the merged result set must not depend on how
// the grid was sharded.
func TestShardCountInvariance(t *testing.T) {
	specs := testGrid(t)
	baseline := runBaseline(t, specs)
	for _, n := range []int{1, 3} {
		o := &Orchestrator{Store: NewDirStore(t.TempDir()), Workers: 2}
		out, err := o.Run(specs, n, false)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		checkAgainstBaseline(t, baseline, out)
	}
}

// TestResumeRejectsDifferentGrid: pointing -resume at a checkpoint of a
// different grid must fail loudly instead of merging unrelated results.
func TestResumeRejectsDifferentGrid(t *testing.T) {
	specs := testGrid(t)
	dir := t.TempDir()
	o := &Orchestrator{Store: NewDirStore(dir), Workers: 2}
	if _, err := o.prepare(NewDirStore(dir), specs, 2, false); err != nil {
		t.Fatal(err)
	}
	other := append([]JobSpec(nil), specs...)
	other[0].Seed = 99
	if _, err := o.Run(other, 2, true); err == nil {
		t.Fatalf("resume against a different grid should fail")
	}
}

// TestChildProcessMode runs the orchestrator over child worker processes, re-exec'ing this
// test binary as the worker (helper-process pattern): the worker path is the
// same RunShard+WriteShardResults code the clgpsim worker subcommand uses.
func TestChildProcessMode(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping child-process mode in -short mode")
	}
	specs := testGrid(t)
	baseline := runBaseline(t, specs)
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	st := NewDirStore(dir)
	o := &Orchestrator{
		Store: st,
		Launcher: &ProcessLauncher{Store: st, PerHost: 2, Workers: 1,
			Argv: func(dir string, shard, workers int, spanParent string) []string {
				// Positional args after "--" reach the helper via os.Args.
				return []string{exe, "-test.run", "TestHelperWorkerProcess", "--",
					dir, strconv.Itoa(shard), strconv.Itoa(workers)}
			}},
		Logger: testLogger(t),
	}
	out, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Ran) != 2 {
		t.Fatalf("child mode ran %v, want both shards", out.Ran)
	}
	checkAgainstBaseline(t, baseline, out)
}

// TestHelperWorkerProcess is not a real test: it is the body of the child
// processes spawned by TestChildProcessMode. In a normal test run (no "--"
// args) it skips immediately.
func TestHelperWorkerProcess(t *testing.T) {
	sep := -1
	for i, a := range os.Args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 0 || len(os.Args) < sep+4 {
		t.Skip("helper process for TestChildProcessMode")
	}
	dir := os.Args[sep+1]
	shard, err := strconv.Atoi(os.Args[sep+2])
	if err != nil {
		t.Fatal(err)
	}
	workers, err := strconv.Atoi(os.Args[sep+3])
	if err != nil {
		t.Fatal(err)
	}
	st := NewDirStore(dir)
	m, err := st.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunShard(st, m, shard, workers, "", "", nil); err != nil {
		t.Fatal(err)
	}
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// testLogger routes orchestrator slog output through t.Logf.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

func TestMergeDirOnFinishedSweep(t *testing.T) {
	specs := testGrid(t)
	st := NewDirStore(t.TempDir())
	o := &Orchestrator{Store: st, Workers: 2}
	if _, err := o.Run(specs, 2, false); err != nil {
		t.Fatal(err)
	}
	m, err := st.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := MergeStore(st, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(specs) || m.NumJobs() != len(specs) {
		t.Fatalf("MergeStore returned %d records for %d jobs", len(recs), len(specs))
	}
	for i, rec := range recs {
		if rec.Job != specs[i].Name() {
			t.Errorf("record %d is %q, want %q (grid order)", i, rec.Job, specs[i].Name())
		}
	}
}

// TestRunShardRejectsOutOfRangeShard: a shard id outside the plan is an
// error, not a panic, and leaves nothing in the store.
func TestRunShardRejectsOutOfRangeShard(t *testing.T) {
	st := NewDirStore(t.TempDir())
	m, err := NewManifest(testGrid(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 1, 99} {
		_, err := RunShard(st, m, id, 1, "", "", nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard %d out of range", id)) {
			t.Errorf("RunShard(%d) error = %v, want shard %d out of range", id, err, id)
		}
	}
	if entries, _ := os.ReadDir(st.Location()); len(entries) != 0 {
		t.Errorf("out-of-range runs left %d entries in the store", len(entries))
	}
}

func TestWorkerArgvShape(t *testing.T) {
	argv := WorkerArgv("clgpsim", "/tmp/sweep", 3, 4, "")
	if len(argv) != 8 || argv[1] != "worker" || argv[3] != "/tmp/sweep" || argv[5] != "3" || argv[7] != "4" {
		t.Errorf("unexpected worker argv %v", argv)
	}
}

func TestTechEngineRoundTrip(t *testing.T) {
	for _, tech := range []cacti.Tech{cacti.Tech90, cacti.Tech45} {
		back, err := cacti.ParseTech(tech.String())
		if err != nil || back != tech {
			t.Errorf("tech %v does not round-trip: %v %v", tech, back, err)
		}
	}
	for _, eng := range []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP} {
		back, err := core.ParseEngineKind(eng.String())
		if err != nil || back != eng {
			t.Errorf("engine %v does not round-trip: %v %v", eng, back, err)
		}
	}
}
