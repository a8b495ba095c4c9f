package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
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
			jobs = append(jobs, Job{Config: cfg, Workload: w, Warmup: warmup, Snapshots: store})
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

// snapshotLog counts the snapshots a run fetched and pushed, and keeps per
// key the buffers of the last fetch and the last push, only to compare
// their addresses.
type snapshotLog struct {
	SnapshotStore
	mu              sync.Mutex
	fetches, pushes int
	fetched, pushed map[string][]byte
}

func newSnapshotLog(st SnapshotStore) *snapshotLog {
	return &snapshotLog{SnapshotStore: st, fetched: map[string][]byte{}, pushed: map[string][]byte{}}
}

func (s *snapshotLog) FetchSnapshot(key string) ([]byte, error) {
	data, err := s.SnapshotStore.FetchSnapshot(key)
	if err == nil {
		s.mu.Lock()
		s.fetches++
		s.fetched[key] = data
		s.mu.Unlock()
	}
	return data, err
}

func (s *snapshotLog) PushSnapshot(key string, data []byte) error {
	s.mu.Lock()
	s.pushes++
	s.pushed[key] = data
	s.mu.Unlock()
	return s.SnapshotStore.PushSnapshot(key, data)
}

// TestRecycledTablesMatchFresh: engines built on tables and instruction
// slabs recycled from earlier jobs, sealing and reading snapshots in
// recycled buffers — released after a straight run, a recording run, a
// restored run, or a restore that decoded every table and then failed — give
// every job the results of an engine on fresh tables, on one worker and on
// two. On one worker, the cold fallback after a failed restore seals its
// snapshot into the very buffer the failed restore read.
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
			t.Fatalf("%s: fresh run: %v", j.Config.Name, err)
		}
		fresh[j.Config.Name] = r.WithoutTelemetry()
	}
	check := func(pass string, jobs []Job, workers int) {
		t.Helper()
		for i, r := range (Runner{Workers: workers}).Run(jobs) {
			if r.Err != nil {
				t.Fatalf("%s, %d workers: %s: %v", pass, workers, jobs[i].Config.Name, r.Err)
			}
			if !reflect.DeepEqual(r.Stats.WithoutTelemetry(), fresh[jobs[i].Config.Name]) {
				t.Errorf("%s, %d workers: %s differs from a fresh engine's run", pass, workers, jobs[i].Config.Name)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		store := DirSnapshots{Dir: filepath.Join(t.TempDir(), "snaps")}
		check("straight", mixedJobs(w, 0, nil), workers)
		check("cold", mixedJobs(w, insts/2, store), workers)
		check("restored", mixedJobs(w, insts/2, store), workers)
		damaged := damagedCopy(t, store)
		trail := newSnapshotLog(damaged)
		check("damaged artifacts", mixedJobs(w, insts/2, trail), workers)
		if trail.fetches != trail.pushes || trail.fetches == 0 {
			t.Fatalf("%d damaged artifacts read, %d replacements pushed", trail.fetches, trail.pushes)
		}
		for key, read := range trail.fetched {
			if sealed := trail.pushed[key]; workers == 1 && (sealed == nil || &sealed[0] != &read[0]) {
				t.Errorf("%s: the cold fallback did not seal into the buffer its failed restore read", key)
			}
		}
		// The cold fallback re-published a good artifact over every bad one.
		for _, j := range mixedJobs(w, insts/2, nil) {
			key := SnapshotKey(jobFingerprint(t, j), j.Config.WarmKey(), insts/2)
			good, _ := store.FetchSnapshot(key)
			again, err := damaged.FetchSnapshot(key)
			if err != nil || !reflect.DeepEqual(again, good) {
				t.Fatalf("%s: the damaged artifact was not replaced by the cold path's (%v)", j.Config.Name, err)
			}
		}
	}
}

// TestRunnerJobAllocBudget: a worker's jobs after its first build their
// engines on the tables and instruction slabs of the engines before them,
// and seal or read their warm-state snapshots in the buffer the job before
// handed back, so a job allocates tens of kilobytes: not the ~470 KB of
// predictor and cache tables a fresh engine needs, nor a ~356 KB snapshot
// container. The jobs record cold into a DirSnapshots store, then restore
// from it, then run straight.
func TestRunnerJobAllocBudget(t *testing.T) {
	const budget = 64 << 10
	const insts = 10_000
	w := benchWorkload(t, insts, 4)
	engines := []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP}
	store := newSnapshotLog(DirSnapshots{Dir: filepath.Join(t.TempDir(), "snaps")})
	var jobs []Job
	var modes []string
	add := func(mode string, size, warmup int, snaps SnapshotStore) {
		for _, eng := range engines {
			cfg := core.Config{Tech: cacti.Tech90, L1ISize: size, Engine: eng, UseL0: eng == core.EngineCLGP}
			jobs = append(jobs, Job{Config: cfg, Workload: w, Warmup: warmup, Snapshots: snaps})
			modes = append(modes, mode)
		}
	}
	for _, mode := range []string{"cold", "restored"} {
		for _, size := range []int{2 << 10, 8 << 10} {
			add(mode, size, insts/2, store)
		}
	}
	for rep := 0; rep < 3; rep++ {
		add("straight", 2<<10, 0, nil)
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
	if store.fetches != 8 || store.pushes != 8 {
		t.Fatalf("%d snapshots fetched and %d pushed, want 8 of each", store.fetches, store.pushes)
	}
	most := map[string]uint64{}
	for i := 1; i < len(jobs); i++ {
		got := allocs[i+1] - allocs[i]
		if got > budget {
			t.Errorf("job %d (%s, %v, %d B L1I) allocated %d bytes (budget %d)",
				i, modes[i], jobs[i].Config.Engine, jobs[i].Config.L1ISize, got, budget)
		}
		most[modes[i]] = max(most[modes[i]], got)
	}
	t.Logf("the most a job after the first allocated, by kind: %v", most)
}
