package core

import (
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/workload"
)

// BenchmarkEngineCycle measures the cost of one Step of the full system
// (CLGP engine, L0, small L1, gcc-like workload) with the event-horizon
// clock engaged: a Step that finds the machine stalled fast-forwards many
// cycles at once, so ns/op here is cost per *event*, not per cycle (the
// per-cycle figure is BenchmarkEngineCycleNoSkip). The headline requirement
// is unchanged either way: 0 allocs/op — neither the cycle loop nor the
// horizon computation may touch the heap.
func BenchmarkEngineCycle(b *testing.B) {
	benchmarkEngineCycle(b, EngineCLGP, false)
}

// BenchmarkEngineCycleNoSkip is the per-cycle reference path: every simulated
// cycle is ticked individually, which is what the ns/cycle perf gate
// (clgpsim bench) measures the fast-forward win against.
func BenchmarkEngineCycleNoSkip(b *testing.B) {
	benchmarkEngineCycle(b, EngineCLGP, true)
}

// BenchmarkEngineCycleNone is the no-prefetch baseline cycle cost.
func BenchmarkEngineCycleNone(b *testing.B) {
	benchmarkEngineCycle(b, EngineNone, false)
}

func benchmarkEngineCycle(b *testing.B, kind EngineKind, noSkip bool) {
	w := icacheStressWorkload(b, 400_000, 7)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: kind, UseL0: kind != EngineNone, NoSkip: noSkip}
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up past cold-start growth of pools and rings so the timed region
	// is pure steady state.
	for i := 0; i < 20_000 && eng.Step(); i++ {
	}
	startCycles := eng.Cycles()
	cycles := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.Step() {
			// Trace exhausted: restart on a fresh engine outside the timer.
			b.StopTimer()
			cycles += eng.Cycles() - startCycles
			eng, err = NewEngine(cfg, w.Dict, w.Trace)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 20_000 && eng.Step(); j++ {
			}
			startCycles = eng.Cycles()
			b.StartTimer()
		}
	}
	b.StopTimer()
	cycles += eng.Cycles() - startCycles
	if cycles > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
	}
}

// BenchmarkNewEngine measures one engine build (caches, predictor tables,
// back-end, prefetch engine) at the bench configuration point: a figures
// sweep builds one engine per job, so B/op here is per-job garbage.
func BenchmarkNewEngine(b *testing.B) {
	w := icacheStressWorkload(b, 20_000, 7)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(cfg, w.Dict, w.Trace); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotBenchEngine is the engine BenchmarkSnapshot and BenchmarkRestore
// work on: CLGP + L0 with a 2 KB L1I, at a 10K-instruction warm-up boundary.
func snapshotBenchEngine(b *testing.B) (*Engine, *workload.Workload) {
	w := icacheStressWorkload(b, 20_000, 7)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RunUntilCommitted(10_000); err != nil {
		b.Fatal(err)
	}
	return eng, w
}

// BenchmarkSnapshot measures Engine.Snapshot at a 10K-instruction warm-up
// boundary; B/op should stay close to the snapshot's own size.
func BenchmarkSnapshot(b *testing.B) {
	eng, w := snapshotBenchEngine(b)
	fp := workload.Fingerprint(w.Profile, w.Dict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := eng.Snapshot(w.Name, fp)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// BenchmarkRestore measures Engine.Restore of BenchmarkSnapshot's snapshot
// into a fresh engine; building that engine is not timed.
func BenchmarkRestore(b *testing.B) {
	eng, w := snapshotBenchEngine(b)
	fp := workload.Fingerprint(w.Profile, w.Dict)
	data, err := eng.Snapshot(w.Name, fp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := MustNewEngine(eng.Config(), w.Dict, w.Trace)
		b.StartTimer()
		if err := fresh.Restore(data, w.Name, fp); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fresh.Release()
		b.StartTimer()
	}
}
