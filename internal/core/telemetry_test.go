package core

import "testing"

// TestInstrumentedLoopZeroAlloc is the allocation guard for the cycle loop
// and its telemetry instrumentation, for every engine in both clock modes
// at a BenchmarkCoreGrid configuration: the engine's hot-path counters
// (fast-forward jumps, cancelled prefetches, skipped cycles, wrong-path
// fetches) are plain single-writer fields, so stepping the instrumented
// engine — and snapping its telemetry — must not touch the heap beyond
// the rare growth of a free list.
// The ns/cycle side of the same budget is make bench-gate's
// (BenchmarkCoreGrid, judged by internal/benchgate).
func TestInstrumentedLoopZeroAlloc(t *testing.T) {
	w := icacheStressWorkload(t, 400_000, 7)
	for _, kind := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
		for _, mode := range []string{"skip", "noskip"} {
			t.Run(kind.String()+"/"+mode, func(t *testing.T) {
				eng, err := NewEngine(coreGridConfig(kind, mode == "noskip"), w.Dict, w.Trace)
				if err != nil {
					t.Fatal(err)
				}
				// Warm past cold-start growth of pools and rings, as the cycle
				// bench does.
				if err := eng.RunUntilCommitted(10_000); err != nil {
					t.Fatal(err)
				}
				// Count allocations over the whole window at once and hold
				// them to make bench-gate's floor, at most one per thousand
				// simulated cycles: the loop allocates only when a free list
				// grows past its high-water mark. testing.AllocsPerRun's
				// per-run average is rounded down, so it would pass up to one
				// allocation per run.
				before, start := mallocs(), eng.Cycles()
				for run := 0; run < 400; run++ {
					for i := 0; i < 50; i++ {
						if !eng.Step() {
							t.Fatal("trace exhausted mid-measurement; grow the workload")
						}
					}
					if snap := eng.TelemetrySnapshot(); snap.Cycles == 0 {
						t.Error("snapshot of a running engine reports zero cycles")
					}
				}
				if allocs, cycles := mallocs()-before, eng.Cycles()-start; 1000*allocs > cycles {
					t.Errorf("instrumented engine loop allocates %d times in %d cycles, more than once per 1000", allocs, cycles)
				}
			})
		}
	}
}
