package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/trace"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// recordTraceFile streams the gcc workload's walk to a container and
// returns its path plus the in-memory workload for the reference run.
func recordTraceFile(t testing.TB, numInsts int, seed int64) (string, *workload.Workload) {
	t.Helper()
	w := icacheStressWorkload(t, numInsts, seed)
	path := filepath.Join(t.TempDir(), "gcc.clgt")
	// A small chunk size makes the streamed run cross many chunk
	// boundaries; the window cap stays well below the trace length.
	tw, err := tracefile.Create(path, tracefile.Options{
		Workload: w.Name, Fingerprint: workload.Fingerprint(w.Profile, w.Dict), Seed: seed, ChunkRecords: 4096,
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	dict, err := workload.GenerateTo(w.Profile, numInsts, seed, tw)
	if err != nil {
		t.Fatalf("generate to container: %v", err)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if dict.Hash() != w.Dict.Hash() {
		t.Fatalf("GenerateTo rebuilt a different image: %#x vs %#x", dict.Hash(), w.Dict.Hash())
	}
	return path, w
}

// TestStreamedEngineMatchesInMemory is the acceptance property of the
// streaming subsystem: the same configuration over the same workload must
// produce bit-identical statistics whether the trace is fully materialised
// or windowed off disk with a cap far below the trace length — while never
// holding more than the cap resident.
func TestStreamedEngineMatchesInMemory(t *testing.T) {
	const numInsts = 120_000
	const windowCap = 4096
	path, w := recordTraceFile(t, numInsts, 21)

	for _, ek := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
		t.Run(ek.String(), func(t *testing.T) {
			cfg := Config{Tech: cacti.Tech90, L1ISize: 1 << 10, Engine: ek, UseL0: ek == EngineCLGP}
			want := runConfig(t, cfg, w)

			rd, err := tracefile.Open(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer rd.Close()
			wt, err := trace.NewWindowTrace(rd, windowCap)
			if err != nil {
				t.Fatalf("window: %v", err)
			}
			eng, err := NewEngine(cfg, w.Dict, wt)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			got, err := eng.Run()
			if err != nil {
				t.Fatalf("streamed run: %v", err)
			}
			if !reflect.DeepEqual(got.WithoutTelemetry(), want.WithoutTelemetry()) {
				t.Errorf("streamed stats differ from in-memory stats:\nstreamed: %+v\nmemory:   %+v", got, want)
			}
			if wt.MaxResident() > windowCap {
				t.Errorf("window held %d records, cap %d", wt.MaxResident(), windowCap)
			}
			if wt.MaxResident() >= numInsts {
				t.Errorf("window held the whole trace (%d records) — streaming had no effect", wt.MaxResident())
			}
		})
	}
}
