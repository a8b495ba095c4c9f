package dispatch

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"clgp/internal/core"
	"clgp/internal/sim"
	"clgp/internal/workload"
)

// warmGrid is the snapshot-test grid: one workload, a few configurations,
// warm-up at half the trace so the checkpoint is architecturally meaningful.
func warmGrid(t testing.TB) []JobSpec {
	t.Helper()
	specs, err := GridSpecs(GridConfig{
		Profiles: []string{"gzip"},
		Insts:    6_000,
		Seed:     7,
		Engines:  []core.EngineKind{core.EngineNone, core.EngineCLGP},
		Sizes:    []int{1 << 10, 4 << 10},
		Warmup:   3_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// expectedSnapshotKey computes the artifact key a spec's warm flow uses, the
// same way the sim layer does (workload fingerprint × warm key × boundary).
func expectedSnapshotKey(t *testing.T, spec JobSpec) string {
	t.Helper()
	w, err := make(workloadCache).get(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	return sim.SnapshotKey(workload.Fingerprint(w.Profile, w.Dict), cfg.WarmKey(), spec.Warmup)
}

// TestStoreSnapshotRoundtrip pins the snapshot half of the Store contract on
// both backends: a miss wraps os.ErrNotExist, push/fetch round-trips bytes,
// and re-publishing a key is allowed.
func TestStoreSnapshotRoundtrip(t *testing.T) {
	stores := map[string]Store{
		"dir":    NewDirStore(t.TempDir()),
		"object": newTestObjectStore(t),
	}
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			key := sim.SnapshotKey(0xfeed, 0xbeef, 3_000)
			if _, err := st.FetchSnapshot(key); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("miss: got %v, want os.ErrNotExist", err)
			}
			data := []byte("warm-state bytes")
			if err := st.PushSnapshot(key, data); err != nil {
				t.Fatalf("push: %v", err)
			}
			got, err := st.FetchSnapshot(key)
			if err != nil || string(got) != string(data) {
				t.Fatalf("fetch: %q, %v", got, err)
			}
			if err := st.PushSnapshot(key, data); err != nil {
				t.Fatalf("re-push: %v", err)
			}
		})
	}
	// Store satisfies sim.SnapshotStore by construction; keep that pinned at
	// compile time so the sim-side interface cannot drift away.
	var _ sim.SnapshotStore = stores["dir"]
}

// TestWarmSweepMatchesBaseline is the dispatch-level acceptance property: a
// warm-up grid swept through a store produces results bit-identical to plain
// single-process runs, publishes one artifact per warm configuration, and a
// re-run over the same store restores from those artifacts and still matches.
func TestWarmSweepMatchesBaseline(t *testing.T) {
	specs := warmGrid(t)
	baseline := runBaseline(t, specs)
	dir := t.TempDir()

	o := &Orchestrator{Store: NewDirStore(dir), Workers: 2}
	out, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBaseline(t, baseline, out)

	// One artifact per distinct (fingerprint, warm key, boundary): the grid
	// has one workload and four warm configurations.
	ents, err := os.ReadDir(filepath.Join(dir, SnapshotsDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Errorf("sweep published %d snapshot artifacts, want 4", len(ents))
	}
	st := NewDirStore(dir)
	for _, spec := range specs {
		if _, err := st.FetchSnapshot(expectedSnapshotKey(t, spec)); err != nil {
			t.Errorf("job %s: expected artifact missing: %v", spec.Name(), err)
		}
	}

	// A fresh (non-resumed) sweep clears shard results but keeps the
	// content-addressed snapshots, so every job restores — and must still be
	// bit-identical to the cold baseline.
	out2, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBaseline(t, baseline, out2)
}

// TestObjectStoreWarmSweep runs the same property over the HTTP object
// store: warm artifacts published and restored through the wire protocol.
func TestObjectStoreWarmSweep(t *testing.T) {
	specs := warmGrid(t)
	baseline := runBaseline(t, specs)
	st := newTestObjectStore(t)

	o := &Orchestrator{Store: st, Workers: 2}
	out, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBaseline(t, baseline, out)
	for _, spec := range specs {
		if _, err := st.FetchSnapshot(expectedSnapshotKey(t, spec)); err != nil {
			t.Errorf("job %s: expected artifact missing: %v", spec.Name(), err)
		}
	}
	out2, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBaseline(t, baseline, out2)
}

// TestChildWorkerWarmRestore is the cross-process determinism check: child
// worker processes share warm-state through the store — the second sweep's
// workers restore artifacts recorded by the first sweep's workers — and both
// sweeps match the plain single-process baseline exactly.
func TestChildWorkerWarmRestore(t *testing.T) {
	specs := warmGrid(t)
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
			Argv: func(store string, shard, workers int, spanParent string) []string {
				return []string{exe, "-test.run", "TestHelperSnapshotWorkerProcess", "--",
					store, strconv.Itoa(shard), strconv.Itoa(workers)}
			}},
		Logger: testLogger(t),
	}
	out, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBaseline(t, baseline, out)
	if _, err := os.Stat(filepath.Join(dir, SnapshotsDir)); err != nil {
		t.Fatalf("child workers published no snapshots: %v", err)
	}
	out2, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBaseline(t, baseline, out2)
}

// TestHelperSnapshotWorkerProcess is not a real test: it is the body of the
// child processes spawned by TestChildWorkerWarmRestore — a store-connected
// worker, so the warm-snapshot wiring in RunShard is exercised across a
// process boundary. In a normal test run (no "--" args) it skips immediately.
func TestHelperSnapshotWorkerProcess(t *testing.T) {
	sep := -1
	for i, a := range os.Args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 0 || len(os.Args) < sep+4 {
		t.Skip("helper process for TestChildWorkerWarmRestore")
	}
	st, err := OpenStore(os.Args[sep+1])
	if err != nil {
		t.Fatal(err)
	}
	shard, err := strconv.Atoi(os.Args[sep+2])
	if err != nil {
		t.Fatal(err)
	}
	workers, err := strconv.Atoi(os.Args[sep+3])
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunShard(st, m, shard, workers, "", "", nil); err != nil {
		t.Fatal(err)
	}
}
