package sim

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/workload"
)

func TestDirSnapshotsRoundtrip(t *testing.T) {
	s := DirSnapshots{Dir: filepath.Join(t.TempDir(), "snapshots")}
	key := SnapshotKey(0xabc, 0xdef, 10_000)

	if _, err := s.FetchSnapshot(key); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("miss: got %v, want os.ErrNotExist", err)
	}
	data := []byte("snapshot-bytes")
	if err := s.PushSnapshot(key, data); err != nil {
		t.Fatalf("push: %v", err)
	}
	got, err := s.FetchSnapshot(key)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if string(got) != string(data) {
		t.Errorf("roundtrip: got %q", got)
	}
	// Re-publishing the same key (concurrent recorders race benignly) works.
	if err := s.PushSnapshot(key, data); err != nil {
		t.Fatalf("re-push: %v", err)
	}
	// No temp files left behind.
	ents, err := os.ReadDir(s.Dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(ents) != 1 {
		t.Errorf("store holds %d files, want 1 (temp file leak?)", len(ents))
	}
}

// TestWarmRunsBitIdentical is the batch-layer acceptance property: with a
// snapshot store attached, both the recording (cold) pass and the restoring
// (warm) pass must produce results bit-identical to plain runs, and the warm
// pass must actually hit the artifact the cold pass published.
func TestWarmRunsBitIdentical(t *testing.T) {
	const insts = 24_000
	const warmup = insts / 2
	w := benchWorkload(t, insts, 5)
	cfg := core.Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: core.EngineCLGP, UseL0: true}
	plain := Runner{Workers: 1}.Run([]Job{{Config: cfg, Workload: w}})[0]
	if plain.Err != nil {
		t.Fatalf("plain run: %v", plain.Err)
	}

	store := DirSnapshots{Dir: filepath.Join(t.TempDir(), "snaps")}
	job := Job{Config: cfg, Workload: w, Warmup: warmup, Snapshots: store}

	cold := Runner{Workers: 1}.Run([]Job{job})[0]
	if cold.Err != nil {
		t.Fatalf("cold recording run: %v", cold.Err)
	}
	if !reflect.DeepEqual(cold.Stats.WithoutTelemetry(), plain.Stats.WithoutTelemetry()) {
		t.Errorf("recording run diverged from plain run:\ncold:  %+v\nplain: %+v", cold.Stats, plain.Stats)
	}
	key := SnapshotKey(jobFingerprint(t, job), cfg.WarmKey(), warmup)
	if _, err := store.FetchSnapshot(key); err != nil {
		t.Fatalf("cold pass did not publish %s: %v", key, err)
	}

	warm := Runner{Workers: 1}.Run([]Job{job})[0]
	if warm.Err != nil {
		t.Fatalf("warm restored run: %v", warm.Err)
	}
	if !reflect.DeepEqual(warm.Stats.WithoutTelemetry(), plain.Stats.WithoutTelemetry()) {
		t.Errorf("restored run diverged from plain run:\nwarm:  %+v\nplain: %+v", warm.Stats, plain.Stats)
	}
}

// TestWarmSharedAcrossClockModes pins the warm key's sharing contract: jobs
// differing only in axes excluded from the warm key (clock mode, name) share
// one artifact, and each restored run stays bit-identical to its own plain
// run.
func TestWarmSharedAcrossClockModes(t *testing.T) {
	const insts = 24_000
	const warmup = insts / 2
	w := benchWorkload(t, insts, 6)
	cfg := core.Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: core.EngineFDP}
	noSkip := cfg
	noSkip.NoSkip = true
	noSkip.Name = "fdp-percycle"

	store := DirSnapshots{Dir: filepath.Join(t.TempDir(), "snaps")}
	jobs := []Job{
		{Config: cfg, Workload: w, Warmup: warmup, Snapshots: store},
		{Config: noSkip, Workload: w, Warmup: warmup, Snapshots: store},
	}
	plain := Runner{Workers: 1}.Run([]Job{{Config: cfg, Workload: w}, {Config: noSkip, Workload: w}})
	got := Runner{Workers: 1}.Run(jobs)
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("job %d: %v", i, got[i].Err)
		}
		want := plain[i].Stats.WithoutTelemetry()
		want.Name = got[i].Stats.Name
		have := got[i].Stats.WithoutTelemetry()
		have.Name = want.Name
		if !reflect.DeepEqual(have, want) {
			t.Errorf("job %d diverged from its plain run", i)
		}
	}
	ents, err := os.ReadDir(store.Dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(ents) != 1 {
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("clock modes did not share one artifact: store holds %v", names)
	}
}

// TestWarmupWholeRunSkipsSnapshotting: a warm-up at or past the target is a
// plain run — no artifact is recorded.
func TestWarmupWholeRunSkipsSnapshotting(t *testing.T) {
	const insts = 8_000
	w := benchWorkload(t, insts, 7)
	cfg := core.Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: core.EngineNone}
	store := DirSnapshots{Dir: filepath.Join(t.TempDir(), "snaps")}
	r := Runner{Workers: 1}.Run([]Job{{Config: cfg, Workload: w, Warmup: insts, Snapshots: store}})[0]
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if _, err := os.Stat(store.Dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("whole-run warm-up still wrote a snapshot directory (stat: %v)", err)
	}
}

// TestWarmSurvivesDamagedArtifact: a corrupt cached snapshot falls back to
// the cold path and still produces correct results (and re-publishes a good
// artifact over the bad one).
func TestWarmSurvivesDamagedArtifact(t *testing.T) {
	const insts = 16_000
	const warmup = insts / 2
	w := benchWorkload(t, insts, 8)
	cfg := core.Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: core.EngineCLGP, UseL0: true}
	store := DirSnapshots{Dir: filepath.Join(t.TempDir(), "snaps")}
	key := SnapshotKey(jobFingerprint(t, Job{Workload: w}), cfg.WarmKey(), warmup)
	if err := store.PushSnapshot(key, []byte("definitely not a snapshot")); err != nil {
		t.Fatalf("seed bad artifact: %v", err)
	}
	plain := Runner{Workers: 1}.Run([]Job{{Config: cfg, Workload: w}})[0]
	r := Runner{Workers: 1}.Run([]Job{{Config: cfg, Workload: w, Warmup: warmup, Snapshots: store}})[0]
	if r.Err != nil {
		t.Fatalf("run over damaged artifact: %v", r.Err)
	}
	if !reflect.DeepEqual(r.Stats.WithoutTelemetry(), plain.Stats.WithoutTelemetry()) {
		t.Error("run over damaged artifact diverged from plain run")
	}
	data, err := store.FetchSnapshot(key)
	if err != nil || len(data) < 64 {
		t.Errorf("good artifact was not re-published over the bad one (err %v, %d bytes)", err, len(data))
	}
}

// jobFingerprint resolves the workload fingerprint the warm flow keys on.
func jobFingerprint(t *testing.T, j Job) uint64 {
	t.Helper()
	if j.Workload == nil {
		t.Fatal("job has no workload")
	}
	return workload.Fingerprint(j.Workload.Profile, j.Workload.Dict)
}
