package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/snap"
	"clgp/internal/stats"
	"clgp/internal/workload"
)

// mixedJobs is every kind of grid point at three L1 sizes: the four engines,
// the prefetching ones with and without an L0, and the ideal baseline. Its
// table sizes differ from job to job, so recycled tables change hands
// between configurations.
func mixedJobs(w *workload.Workload, warmup int, store SnapshotStore) []Job {
	type point struct {
		eng          core.EngineKind
		useL0, ideal bool
	}
	points := []point{
		{core.EngineNone, false, false}, {core.EngineNone, false, true},
		{core.EngineNextN, false, false}, {core.EngineNextN, true, false},
		{core.EngineFDP, false, false}, {core.EngineFDP, true, false},
		{core.EngineCLGP, false, false}, {core.EngineCLGP, true, false},
	}
	var jobs []Job
	for _, size := range []int{256, 2 << 10, 64 << 10} {
		for _, p := range points {
			cfg := core.Config{
				Tech: cacti.Tech90, L1ISize: size, Engine: p.eng,
				UseL0: p.useL0, IdealICache: p.ideal,
			}
			cfg.Name = JobName(w.Name, p.eng, cfg.Tech, size, p.useL0, p.ideal)
			jobs = append(jobs, Job{Name: cfg.Name, Config: cfg, Workload: w, Warmup: warmup, Snapshots: store})
		}
	}
	return jobs
}

// damagedCopy copies every artifact of from into a new store, each re-sealed
// with one byte appended to its payload: Restore decodes the whole engine
// state, tables included, before rejecting the trailing byte.
func damagedCopy(t *testing.T, from DirSnapshots) DirSnapshots {
	t.Helper()
	to := DirSnapshots{Dir: filepath.Join(t.TempDir(), "damaged")}
	ents, err := os.ReadDir(from.Dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no artifacts to damage in %s (%v)", from.Dir, err)
	}
	for _, ent := range ents {
		data, err := from.FetchSnapshot(ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		meta, payload, err := snap.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		bad := snap.Seal(meta, func(e *snap.Encoder) {
			for _, b := range payload {
				e.U8(b)
			}
			e.U8(0)
		})
		if err := to.PushSnapshot(ent.Name(), bad); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestRecycledTablesMatchFresh: engines built on tables recycled from
// earlier jobs — released after a straight run, a recording run, a restored
// run, or a restore that decoded every table and then failed — give every
// job the results of an engine on fresh tables, on one worker and on two.
func TestRecycledTablesMatchFresh(t *testing.T) {
	const insts = 12_000
	w := benchWorkload(t, insts, 3)
	fresh := map[string]stats.Results{}
	for _, j := range mixedJobs(w, 0, nil) {
		eng, err := core.NewEngine(j.Config, w.Dict, w.Trace)
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: fresh run: %v", j.Name, err)
		}
		fresh[j.Name] = r.WithoutTelemetry()
	}
	check := func(pass string, jobs []Job, workers int) {
		t.Helper()
		for i, r := range (Runner{Workers: workers}).Run(jobs) {
			if r.Err != nil {
				t.Fatalf("%s, %d workers: %s: %v", pass, workers, jobs[i].Name, r.Err)
			}
			if !reflect.DeepEqual(r.Stats.WithoutTelemetry(), fresh[jobs[i].Name]) {
				t.Errorf("%s, %d workers: %s differs from a fresh engine's run", pass, workers, jobs[i].Name)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		store := DirSnapshots{Dir: filepath.Join(t.TempDir(), "snaps")}
		check("straight", mixedJobs(w, 0, nil), workers)
		check("cold", mixedJobs(w, insts/2, store), workers)
		check("restored", mixedJobs(w, insts/2, store), workers)
		damaged := damagedCopy(t, store)
		check("damaged artifacts", mixedJobs(w, insts/2, damaged), workers)
		// The cold fallback re-published a good artifact over every bad one.
		for _, j := range mixedJobs(w, insts/2, nil) {
			key := SnapshotKey(jobFingerprint(t, j), j.Config.WarmKey(), insts/2)
			good, _ := store.FetchSnapshot(key)
			again, err := damaged.FetchSnapshot(key)
			if err != nil || !reflect.DeepEqual(again, good) {
				t.Fatalf("%s: the damaged artifact was not replaced by the cold path's (%v)", j.Name, err)
			}
		}
	}
}

// TestRunnerJobAllocBudget: a worker's jobs after its first build their
// engines on the tables of the engines before them, so a job allocates tens
// of kilobytes, not the ~470 KB of predictor and cache tables a fresh engine
// needs.
func TestRunnerJobAllocBudget(t *testing.T) {
	const budget = 64 << 10
	w := benchWorkload(t, 10_000, 4)
	var jobs []Job
	for rep := 0; rep < 3; rep++ {
		for _, eng := range []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP} {
			cfg := core.Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: eng, UseL0: eng == core.EngineCLGP}
			jobs = append(jobs, Job{Config: cfg, Workload: w})
		}
	}
	allocs := make([]uint64, len(jobs)+1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs[0] = ms.TotalAlloc
	rn := Runner{Workers: 1, OnResult: func(i int, r Result) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocs[i+1] = ms.TotalAlloc
	}}
	for i, r := range rn.Run(jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	var most uint64
	for i := 1; i < len(jobs); i++ {
		got := allocs[i+1] - allocs[i]
		if got > budget {
			t.Errorf("job %d (%v) allocated %d bytes (budget %d)", i, jobs[i].Config.Engine, got, budget)
		}
		most = max(most, got)
	}
	t.Logf("the most a job after the first allocated: %d bytes", most)
}
