package core

import (
	"runtime"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/freelist"
	"clgp/internal/stats"
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
// cycle is ticked individually, which is what BenchmarkCoreGrid's skip
// points are judged against.
func BenchmarkEngineCycleNoSkip(b *testing.B) {
	benchmarkEngineCycle(b, EngineCLGP, true)
}

// BenchmarkEngineCycleNone is the no-prefetch baseline cycle cost.
func BenchmarkEngineCycleNone(b *testing.B) {
	benchmarkEngineCycle(b, EngineNone, false)
}

func benchmarkEngineCycle(b *testing.B, kind EngineKind, noSkip bool) {
	w := icacheStressWorkload(b, 400_000, 7)
	benchmarkSteps(b, Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: kind, UseL0: kind != EngineNone, NoSkip: noSkip}, w)
}

// benchmarkSteps times Step on an engine of cfg over w, one op per Step,
// restarting on a fresh engine outside the timer whenever the trace runs
// out. It reports ns per simulated cycle, ns per ticked cycle, the fraction
// of cycles the event-horizon clock skipped and heap allocations per
// thousand simulated cycles, all over the timed Steps. allocs/kcycle is
// exact where ReportAllocs' allocs/op is rounded down to a whole number
// per Step, so a loop allocating less than once per Step still shows.
func benchmarkSteps(b *testing.B, cfg Config, w *workload.Workload) {
	var eng *Engine
	var startCycles, startSkipped, startMallocs, cycles, skipped, allocs uint64
	start := func() {
		var err error
		eng, err = NewEngine(cfg, w.Dict, w.Trace)
		if err != nil {
			b.Fatal(err)
		}
		// Warm up past cold-start growth of pools and rings so the timed
		// region is pure steady state. The warm-up is counted in committed
		// instructions, not Steps, so both clock modes start timing at the
		// same point of the program.
		if err := eng.RunUntilCommitted(10_000); err != nil {
			b.Fatal(err)
		}
		startCycles, startSkipped, startMallocs = eng.Cycles(), eng.SkippedCycles(), mallocs()
	}
	stop := func() {
		allocs += mallocs() - startMallocs
		cycles += eng.Cycles() - startCycles
		skipped += eng.SkippedCycles() - startSkipped
	}
	start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.Step() {
			// Trace exhausted: restart on a fresh engine outside the timer.
			b.StopTimer()
			stop()
			eng.Release()
			start()
			b.StartTimer()
		}
	}
	b.StopTimer()
	stop()
	eng.Release()
	if cycles > 0 {
		ns := float64(b.Elapsed().Nanoseconds())
		b.ReportMetric(ns/float64(cycles), "ns/cycle")
		if ticked := cycles - skipped; ticked > 0 {
			b.ReportMetric(ns/float64(ticked), "ns/ticked-cycle")
		}
		b.ReportMetric(float64(skipped)/float64(cycles), "skipped/cycle")
		b.ReportMetric(1000*float64(allocs)/float64(cycles), "allocs/kcycle")
	}
}

// mallocs returns the number of heap objects the process has allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// The core gate's workload: every CoreGrid and SnapshotGrid run simulates
// coreGridInsts instructions of a profile generated with seed 1.
const coreGridInsts = 200_000

// coreGridWorkload generates a profile's core-gate workload.
func coreGridWorkload(b *testing.B, profile string) *workload.Workload {
	p, err := workload.ProfileByName(profile)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(p, coreGridInsts, 1)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// coreGridConfig is a CoreGrid point: the 90 nm node with a 2 KB L1I, the
// regime where both instruction delivery and data stalls are exercised,
// and an L0 for CLGP.
func coreGridConfig(kind EngineKind, noSkip bool) Config {
	return Config{
		Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: kind,
		UseL0: kind == EngineCLGP, PreBufferEntries: 8, NoSkip: noSkip,
	}
}

// BenchmarkCoreGrid/<profile>/<engine>/<mode> is the cycle loop's cost over
// the core gate's grid: two front-end-bound profiles and the two miss-heavy
// pointer chasers the event-horizon clock exists for, each engine, with the
// clock skipping and ticking every cycle. Before it is timed, each leaf runs
// its point once in full in its own mode, untimed, and reports that run's
// cycles, the weight make bench-gate gives the point within its profile,
// and committed instructions as cycles/run and insts/run. The gate checks
// that both modes of a point report the same cycles/run: the
// skip-equivalence contract, which the TestSkipEquivalence suites hold in
// the package tests.
func BenchmarkCoreGrid(b *testing.B) {
	for _, prof := range []string{"gzip", "gcc", "mcf", "twolf"} {
		b.Run(prof, func(b *testing.B) {
			w := coreGridWorkload(b, prof)
			for _, kind := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
				b.Run(kind.String(), func(b *testing.B) {
					for _, mode := range []string{"skip", "noskip"} {
						cfg := coreGridConfig(kind, mode == "noskip")
						// The leaf runs once with b.N = 1 before its timed
						// run; the full run is taken once for both.
						var res *stats.Results
						b.Run(mode, func(b *testing.B) {
							if res == nil {
								res = fullRun(b, cfg, w)
							}
							benchmarkSteps(b, cfg, w)
							b.ReportMetric(float64(res.Cycles), "cycles/run")
							b.ReportMetric(float64(res.Committed), "insts/run")
						})
					}
				})
			}
		})
	}
}

// fullRun runs an engine of cfg over w to the end, untimed.
func fullRun(b *testing.B, cfg Config, w *workload.Workload) *stats.Results {
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Release()
	res, err := eng.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSnapshotGrid/{cold,warm} is the warm-state snapshot path over an
// 8-point gcc grid (each engine at a 1 KB and a 2 KB L1I), one point per op,
// with warm-up at half the run. A cold op simulates the warm-up, records
// its snapshot and finishes the run; a warm op restores the point's
// snapshot, recorded untimed beforehand, and finishes the run. Warm-up
// dominates, so make bench-gate requires warm ops to be at least 1.2x
// faster than cold ones.
func BenchmarkSnapshotGrid(b *testing.B) {
	w := coreGridWorkload(b, "gcc")
	fp := workload.Fingerprint(w.Profile, w.Dict)
	const warmup = coreGridInsts / 2
	var cfgs []Config
	for _, kind := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
		for _, size := range []int{1 << 10, 2 << 10} {
			cfgs = append(cfgs, Config{Tech: cacti.Tech90, L1ISize: size, Engine: kind})
		}
	}
	// warmUp builds a point's engine and simulates its warm-up.
	warmUp := func(cfg Config) *Engine {
		eng, err := NewEngine(cfg, w.Dict, w.Trace)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.RunUntilCommitted(warmup); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	snapshot := func(eng *Engine) []byte {
		data, err := eng.Snapshot(w.Name, fp)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	finish := func(eng *Engine) {
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		eng.Release()
	}
	snaps := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		eng := warmUp(cfg)
		snaps[i] = snapshot(eng)
		eng.Release()
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := warmUp(cfgs[i%len(cfgs)])
			freelist.Artifacts.Put(snapshot(eng))
			finish(eng)
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := NewEngine(cfgs[i%len(cfgs)], w.Dict, w.Trace)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Restore(snaps[i%len(cfgs)], w.Name, fp); err != nil {
				b.Fatal(err)
			}
			finish(eng)
		}
	})
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
