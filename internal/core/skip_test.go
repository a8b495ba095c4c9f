package core

import (
	"reflect"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/trace"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// skipTestWorkload generates one named profile for the equivalence matrix.
func skipTestWorkload(t testing.TB, name string, numInsts int, seed int64) *workload.Workload {
	t.Helper()
	p, err := workload.ProfileByName(name)
	if err != nil {
		t.Fatalf("profile %s: %v", name, err)
	}
	w, err := workload.Generate(p, numInsts, seed)
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return w
}

// TestSkipEquivalence is the acceptance property of the event-horizon clock:
// for every engine kind over front-end-bound (gzip, gcc) and miss-heavy
// pointer-chase (mcf, twolf) profiles, the fast-forward path must produce a
// bit-identical stats.Results — including the final cycle count — to the
// per-cycle NoSkip reference, while actually skipping cycles where stalls
// exist to skip.
func TestSkipEquivalence(t *testing.T) {
	const numInsts = 30_000
	profiles := []string{"gzip", "gcc", "mcf", "twolf"}
	engines := []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP}
	for pi, prof := range profiles {
		w := skipTestWorkload(t, prof, numInsts, int64(31+pi))
		for _, ek := range engines {
			t.Run(prof+"/"+ek.String(), func(t *testing.T) {
				cfg := Config{
					Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: ek,
					UseL0: ek == EngineCLGP, PreBufferEntries: 8,
				}
				refCfg := cfg
				refCfg.NoSkip = true
				ref := runConfig(t, refCfg, w)

				eng, err := NewEngine(cfg, w.Dict, w.Trace)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				got, err := eng.Run()
				if err != nil {
					t.Fatalf("skip run: %v", err)
				}
				// Results carry no skip-dependent fields by design, so the
				// whole record must match bit for bit.
				if !reflect.DeepEqual(got.WithoutTelemetry(), ref.WithoutTelemetry()) {
					t.Errorf("event-horizon results diverge from per-cycle reference:\nskip:    %+v\nno-skip: %+v", got, ref)
				}
				if got.Cycles != ref.Cycles {
					t.Errorf("final cycle count %d != reference %d", got.Cycles, ref.Cycles)
				}
				if eng.SkippedCycles() > got.Cycles {
					t.Errorf("skipped %d cycles out of %d total", eng.SkippedCycles(), got.Cycles)
				}
				// The miss-heavy pointer chasers are the profiles the clock
				// exists for: they must actually fast-forward a meaningful
				// share of their (DRAM-dominated) cycles.
				if prof == "mcf" || prof == "twolf" {
					if frac := float64(eng.SkippedCycles()) / float64(got.Cycles); frac < 0.25 {
						t.Errorf("%s skipped only %.1f%% of %d cycles; the event horizon is not engaging",
							prof, 100*frac, got.Cycles)
					}
				}
				t.Logf("%s/%s: %d cycles, %d skipped (%.1f%%)",
					prof, ek, got.Cycles, eng.SkippedCycles(),
					100*float64(eng.SkippedCycles())/float64(got.Cycles))
			})
		}
	}
}

// TestSkipEquivalenceMispredictHeavy targets wrong-path spans: a profile with
// half its branches data-dependent coin flips keeps the front-end on the
// wrong path for a large share of its cycles, where the event-horizon clock
// must skip only the cycles in which the predictor cannot enqueue a block.
// The run must stay bit-identical to the NoSkip reference.
func TestSkipEquivalenceMispredictHeavy(t *testing.T) {
	p, err := workload.ProfileByName("twolf")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	p.Name = "twolf-noisy"
	p.NoisyBranchFrac = 0.5
	p.NoisyTakenBias = 0.5
	w, err := workload.Generate(p, 40_000, 53)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for _, ek := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
		t.Run(ek.String(), func(t *testing.T) {
			cfg := Config{
				Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: ek,
				UseL0: ek == EngineCLGP, PreBufferEntries: 8,
			}
			refCfg := cfg
			refCfg.NoSkip = true
			ref := runConfig(t, refCfg, w)
			eng, err := NewEngine(cfg, w.Dict, w.Trace)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			got, err := eng.Run()
			if err != nil {
				t.Fatalf("skip run: %v", err)
			}
			if !reflect.DeepEqual(got.WithoutTelemetry(), ref.WithoutTelemetry()) {
				t.Errorf("mispredict-heavy results diverge from per-cycle reference:\nskip:    %+v\nno-skip: %+v", got, ref)
			}
			if got.Mispredictions == 0 {
				t.Fatal("profile produced no mispredictions; the test exercises nothing")
			}
			t.Logf("%s: %d cycles, %d skipped (%.1f%%), %d mispredicts",
				ek, got.Cycles, eng.SkippedCycles(),
				100*float64(eng.SkippedCycles())/float64(got.Cycles),
				got.Mispredictions)
		})
	}
}

// TestSkipEquivalenceStreamed runs the same equivalence over a windowed
// on-disk trace with a small cap: the gated Advance calls must still move the
// eviction frontier often enough for the window to stay bounded, and the
// skipping run must match the per-cycle in-memory reference bit for bit.
func TestSkipEquivalenceStreamed(t *testing.T) {
	const numInsts = 60_000
	const windowCap = 4096
	path, w := recordTraceFile(t, numInsts, 37)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 1 << 10, Engine: EngineCLGP, UseL0: true}
	refCfg := cfg
	refCfg.NoSkip = true
	ref := runConfig(t, refCfg, w)

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
		t.Fatalf("streamed skip run: %v", err)
	}
	if !reflect.DeepEqual(got.WithoutTelemetry(), ref.WithoutTelemetry()) {
		t.Errorf("streamed event-horizon results diverge from per-cycle in-memory reference:\nskip:    %+v\nno-skip: %+v", got, ref)
	}
	if eng.SkippedCycles() == 0 {
		t.Error("no cycles skipped on a 1KB-L1 icache-stress run")
	}
	if wt.MaxResident() > windowCap {
		t.Errorf("window held %d records, cap %d — gated Advance broke eviction", wt.MaxResident(), windowCap)
	}
	if wt.MaxResident() >= numInsts {
		t.Errorf("window held the whole trace (%d records) — eviction never ran", wt.MaxResident())
	}
}
