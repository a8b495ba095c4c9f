package dispatch

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/sim"
	"clgp/internal/stats"
)

// replicatedGrid is testGrid with a seed axis: 3 replicate seeds per grid
// point, 24 jobs over 6 distinct (profile, seed) workloads.
func replicatedGrid(t testing.TB, seeds int) []JobSpec {
	t.Helper()
	specs, err := GridSpecs(GridConfig{
		Profiles: []string{"gzip", "mcf"},
		Insts:    6_000,
		Seed:     7,
		Seeds:    seeds,
		Engines:  []core.EngineKind{core.EngineNone, core.EngineCLGP},
		Sizes:    []int{1 << 10, 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestGridSeedAxis(t *testing.T) {
	single := testGrid(t)
	tripled := replicatedGrid(t, 3)
	if len(tripled) != 3*len(single) {
		t.Fatalf("3-seed grid has %d jobs, want %d", len(tripled), 3*len(single))
	}
	names := make(map[string]bool)
	seeds := make(map[int64]bool)
	for _, s := range tripled {
		if names[s.Name()] {
			t.Errorf("duplicate job name %q in replicated grid", s.Name())
		}
		names[s.Name()] = true
		seeds[s.Seed] = true
		if want := int64(7 + s.Rep); s.Seed != want {
			t.Errorf("job %s: replicate %d runs seed %d, want %d", s.Name(), s.Rep, s.Seed, want)
		}
		if s.Rep == 0 && strings.Contains(s.Name(), "#r") {
			t.Errorf("replicate 0 name %q carries a replicate suffix", s.Name())
		}
		if s.Rep > 0 && !strings.HasSuffix(s.Name(), "#r"+strconv.Itoa(s.Rep)) {
			t.Errorf("replicate %d name %q lacks its suffix", s.Rep, s.Name())
		}
	}
	if len(seeds) != 3 {
		t.Errorf("replicated grid covers %d seeds, want 3", len(seeds))
	}
	// The Rep==0 subset (in enumeration order) is exactly the single-seed
	// grid: same specs, same names, so single-seed manifests — and their
	// grid hashes — stay compatible with grids from before the seed axis.
	var rep0 []JobSpec
	for _, s := range tripled {
		if s.Rep == 0 {
			rep0 = append(rep0, s)
		}
	}
	if len(rep0) != len(single) {
		t.Fatalf("replicated grid holds %d rep-0 jobs, want %d", len(rep0), len(single))
	}
	for i, s := range single {
		if rep0[i] != s {
			t.Errorf("replicate 0 job %d differs from the single-seed grid: %+v vs %+v", i, rep0[i], s)
		}
	}
	// A Seeds of 0 or 1 must enumerate (and hash) identically.
	if GridHash(replicatedGrid(t, 0)) != GridHash(single) || GridHash(replicatedGrid(t, 1)) != GridHash(single) {
		t.Error("Seeds<=1 grid hashes differently from the pre-axis grid")
	}
}

// TestGridHashCoversSeedList: dispatch_test.go's hash test only mutates one
// job's Seed scalar — this covers grids differing solely in the seed *list*
// (replicate count), which must hash apart and never cross-resume.
// TestGridMatchesSweepJobs pins the job set `clgpsim sweep` runs: one
// profile's GridSpecs grid on one node, keeping only the requested L0
// setting for prefetching engines, is every engine over every Table 3 L1
// size per replicate, in this order, each configured as its name says.
func TestGridMatchesSweepJobs(t *testing.T) {
	const insts, seed, reps = 5_000, 3, 2
	sizes := []string{"256B", "512B", "1KB", "2KB", "4KB", "8KB", "16KB", "32KB", "64KB"}
	for _, l0 := range []bool{false, true} {
		grid, err := GridSpecs(GridConfig{
			Profiles: []string{"gzip"}, Techs: []cacti.Tech{cacti.Tech45},
			Insts: insts, Seed: seed, Seeds: reps, L0Variants: l0,
		})
		if err != nil {
			t.Fatal(err)
		}
		var specs []JobSpec
		for _, s := range grid {
			if s.UseL0 == l0 || s.Engine == core.EngineNone.String() {
				specs = append(specs, s)
			}
		}
		engines := []string{"none", "nextn", "fdp", "clgp"}
		if l0 {
			engines = []string{"none", "nextn+l0", "fdp+l0", "clgp+l0"}
		}
		var want []string
		for _, rep := range []string{"", "#r1"} {
			for _, eng := range engines {
				for _, size := range sizes {
					want = append(want, "gzip/"+eng+"/0.045um/L1="+size+rep)
				}
			}
		}
		if len(specs) != len(want) {
			t.Fatalf("l0=%v: sweep has %d jobs, want %d", l0, len(specs), len(want))
		}
		for i, s := range specs {
			cfg, err := s.Config()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Name != want[i] {
				t.Errorf("l0=%v job %d: name %q, want %q", l0, i, cfg.Name, want[i])
			}
			if got := sim.ReplicateName(sim.JobName("gzip", cfg.Engine, cfg.Tech, cfg.L1ISize, cfg.UseL0, cfg.IdealICache), s.Rep); got != want[i] {
				t.Errorf("job %s: configuration %+v names itself %q", want[i], cfg, got)
			}
			if wantSeed := int64(seed + s.Rep); s.Seed != wantSeed || s.Insts != insts {
				t.Errorf("job %s runs seed %d over %d insts, want seed %d over %d", s.Name(), s.Seed, s.Insts, wantSeed, insts)
			}
		}
	}
}

func TestGridHashCoversSeedList(t *testing.T) {
	one := replicatedGrid(t, 1)
	two := replicatedGrid(t, 2)
	three := replicatedGrid(t, 3)
	if GridHash(one) == GridHash(two) || GridHash(two) == GridHash(three) {
		t.Fatal("grids differing only in replicate count share a grid hash")
	}

	// A checkpoint planned for the 2-seed grid must reject a 3-seed resume
	// (and the single-seed one), exactly as any other grid mismatch.
	dir := t.TempDir()
	o := &Orchestrator{Store: NewDirStore(dir), Workers: 1}
	if _, err := o.resolveManifest(NewDirStore(dir), two, 2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(three, 2, true); err == nil {
		t.Error("resume with a different seed list should fail")
	}
	if _, err := o.Run(one, 2, true); err == nil {
		t.Error("resume with the single-seed grid should fail")
	}
}

// TestReplicationDeterminismAcrossModes: the same replicated grid run via
// the in-process and child-process paths yields bit-identical
// stats.Results per job (telemetry aside), so CI width reflects seed
// variance only — never launcher nondeterminism.
func TestReplicationDeterminismAcrossModes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping child-process mode in -short mode")
	}
	specs := replicatedGrid(t, 2)

	collect := func(out *Outcome) map[string]stats.Results {
		t.Helper()
		got := make(map[string]stats.Results, len(out.Records))
		for _, rec := range out.Records {
			if rec.Err != "" {
				t.Fatalf("job %s failed: %s", rec.Job, rec.Err)
			}
			got[rec.Job] = rec.Stats.WithoutTelemetry()
		}
		if len(got) != len(specs) {
			t.Fatalf("merged %d jobs, want %d", len(got), len(specs))
		}
		return got
	}

	inproc := &Orchestrator{Store: NewDirStore(t.TempDir()), Workers: 2}
	outIn, err := inproc.Run(specs, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	baseline := collect(outIn)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	st := NewDirStore(t.TempDir())
	child := &Orchestrator{
		Store: st,
		Launcher: &ProcessLauncher{Store: st, PerHost: 2, Workers: 1,
			Argv: func(dir string, shard, workers int, spanParent string) []string {
				return []string{exe, "-test.run", "TestHelperWorkerProcess", "--",
					dir, strconv.Itoa(shard), strconv.Itoa(workers)}
			}},
		Logger: testLogger(t),
	}
	outChild, err := child.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for job, res := range collect(outChild) {
		if !reflect.DeepEqual(res, baseline[job]) {
			t.Errorf("child-process job %s diverged from the in-process run", job)
		}
	}
}
