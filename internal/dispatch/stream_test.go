package dispatch

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clgp/internal/core"
	"clgp/internal/sim"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// recordSharedTrace records the committed trace of (profile, insts, seed)
// into dir and returns the container path.
func recordSharedTrace(t testing.TB, dir, profile string, insts int, seed int64) string {
	t.Helper()
	p, err := workload.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, profile+".clgt")
	if _, err := sim.RecordTrace(p, insts, seed, path, 4096); err != nil {
		t.Fatal(err)
	}
	return path
}

func runSingleShard(t testing.TB, specs []JobSpec) []RunRecord {
	t.Helper()
	m, err := NewManifest(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RunShard(NewDirStore(t.TempDir()), m, 0, 1, "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Err != "" {
			t.Fatalf("job %s failed: %s", rec.Job, rec.Err)
		}
	}
	return recs
}

// TestShardStreamsFromSharedTraceFile is the dispatch acceptance property:
// a shard pointed at a shared recorded container produces exactly the
// results of the workload-regenerating path, job for job.
func TestShardStreamsFromSharedTraceFile(t *testing.T) {
	const insts = 20_000
	const seed = 7
	path := recordSharedTrace(t, t.TempDir(), "gzip", insts, seed)

	gc := GridConfig{
		Profiles: []string{"gzip"}, Insts: insts, Seed: seed,
		Engines: []core.EngineKind{core.EngineNone, core.EngineCLGP},
		Sizes:   []int{1 << 10, 4 << 10},
	}
	memSpecs, err := GridSpecs(gc)
	if err != nil {
		t.Fatal(err)
	}
	gc.TraceFile = path
	gc.Window = 8192
	streamSpecs, err := GridSpecs(gc)
	if err != nil {
		t.Fatal(err)
	}

	memRecs := runSingleShard(t, memSpecs)
	streamRecs := runSingleShard(t, streamSpecs)
	if len(memRecs) != len(streamRecs) {
		t.Fatalf("%d streamed records vs %d in-memory", len(streamRecs), len(memRecs))
	}
	for i := range memRecs {
		if memRecs[i].Job != streamRecs[i].Job {
			t.Fatalf("record %d is job %s streamed vs %s in-memory", i, streamRecs[i].Job, memRecs[i].Job)
		}
		if !reflect.DeepEqual(memRecs[i].Stats.WithoutTelemetry(), streamRecs[i].Stats.WithoutTelemetry()) {
			t.Errorf("job %s: streamed stats differ from regenerated stats", memRecs[i].Job)
		}
	}
}

// TestGridRejectsMultiProfileTraceFile: a container records one workload,
// so a streamed grid naming several profiles is a configuration error.
func TestGridRejectsMultiProfileTraceFile(t *testing.T) {
	_, err := GridSpecs(GridConfig{
		Profiles: []string{"gzip", "mcf"}, Insts: 1000, Seed: 1,
		TraceFile: "whatever.clgt",
	})
	if err == nil || !strings.Contains(err.Error(), "one workload") {
		t.Errorf("multi-profile streamed grid accepted: %v", err)
	}
}

// TestValidateTraceFileMismatches: a shard pointed at the wrong container
// must fail up front (infrastructure error), not simulate garbage.
func TestValidateTraceFileMismatches(t *testing.T) {
	const insts = 6_000
	dir := t.TempDir()
	path := recordSharedTrace(t, dir, "gzip", insts, 7)

	mkSpecs := func(mutate func(*JobSpec)) []JobSpec {
		specs, err := GridSpecs(GridConfig{
			Profiles: []string{"gzip"}, Insts: insts, Seed: 7,
			Engines:   []core.EngineKind{core.EngineNone},
			Sizes:     []int{1 << 10},
			TraceFile: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			mutate(&specs[i])
		}
		return specs
	}
	runExpectingError := func(specs []JobSpec, wantSub string) {
		t.Helper()
		m, err := NewManifest(specs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunShard(NewDirStore(t.TempDir()), m, 0, 1, "", "", nil); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("RunShard error = %v, want substring %q", err, wantSub)
		}
	}

	// Record count disagreement: the spec asks for a different length than
	// the container holds.
	runExpectingError(mkSpecs(func(s *JobSpec) { s.Insts = insts / 2 }), "records")
	// Mid-trace slice: right workload, right count, wrong interval — the
	// records are not what regenerating (profile, insts, seed) walks.
	slicePath := filepath.Join(dir, "slice.clgt")
	src, err := tracefile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := tracefile.Create(slicePath, tracefile.Options{
		Workload: src.Workload(), Fingerprint: src.Fingerprint(), Seed: src.Seed(),
		Origin: 1000, ChunkRecords: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.Slice(dst, src, 1000, 1000+insts/2); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	runExpectingError(mkSpecs(func(s *JobSpec) { s.TraceFile = slicePath; s.Insts = insts / 2 }), "mid-trace slice")
	// Wrong workload: the container names gzip, the spec wants mcf.
	runExpectingError(mkSpecs(func(s *JobSpec) { s.Profile = "mcf" }), "workload")
	// Wrong image: same workload name, different generation seed.
	runExpectingError(mkSpecs(func(s *JobSpec) { s.Seed = 99 }), "program image")
	// Missing container.
	runExpectingError(mkSpecs(func(s *JobSpec) { s.TraceFile = filepath.Join(dir, "gone.clgt") }), "gone.clgt")
}
