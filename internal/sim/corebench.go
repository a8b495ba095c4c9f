package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/workload"
)

// CoreBenchRecord is one (profile × engine) hot-loop measurement of the
// cycle engine, in both clock modes: the event-horizon fast-forward path
// (the default) and the per-cycle NoSkip reference it must never fall
// behind.
type CoreBenchRecord struct {
	// Name is "<profile>/<engine>", the grid-point label.
	Name string `json:"name"`
	// Profile and Engine identify the grid point's axes.
	Profile string `json:"profile"`
	Engine  string `json:"engine"`
	// Cycles and Committed are the simulated totals (identical in both
	// modes — the equivalence contract).
	Cycles    uint64 `json:"cycles"`
	Committed uint64 `json:"committed"`
	// SkippedCycles and SkippedFrac report how much of the run the
	// event-horizon clock fast-forwarded over.
	SkippedCycles uint64  `json:"skipped_cycles"`
	SkippedFrac   float64 `json:"skipped_frac"`
	// NsPerCycle and CyclesPerSec measure the default (skipping) path.
	NsPerCycle   float64 `json:"ns_per_cycle"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// NoSkipNsPerCycle and NoSkipCyclesPerSec measure the per-cycle
	// reference path on the same workload.
	NoSkipNsPerCycle   float64 `json:"noskip_ns_per_cycle"`
	NoSkipCyclesPerSec float64 `json:"noskip_cycles_per_sec"`
	// SpeedupVsNoSkip is CyclesPerSec / NoSkipCyclesPerSec.
	SpeedupVsNoSkip float64 `json:"speedup_vs_noskip"`
	// AllocsPerKCycle is heap allocations per thousand simulated cycles
	// over a whole run (cold rings included); the steady-state loop itself
	// allocates nothing, so whole-run figures sit far below 1.
	AllocsPerKCycle float64 `json:"allocs_per_kcycle"`
}

// GridSnapshotRecord is the warm-state snapshot measurement: one grid run
// twice over the same workload — once cold with an empty snapshot store
// (every point simulates its full warm-up and publishes a snapshot, so the
// recording overhead is charged honestly) and once warm (every point restores
// and simulates only its measurement interval). Warm-up is half the run, so
// the warm pass does roughly half the simulation work; both passes are serial
// over bit-identical results, making the speedup a machine-independent
// property of the code.
type GridSnapshotRecord struct {
	// Profile is the workload the grid sweeps.
	Profile string `json:"profile"`
	// Points is the number of grid points (each with its own warm key).
	Points int `json:"points"`
	// Insts and Warmup are the per-run trace length and warm-up boundary in
	// committed instructions (Warmup = Insts/2: warm-up dominates).
	Insts  int `json:"insts"`
	Warmup int `json:"warmup"`
	// Cycles is the aggregate simulated cycles across the grid (identical in
	// both passes — restored runs are bit-identical by contract).
	Cycles uint64 `json:"cycles"`
	// ColdCyclesPerSec and WarmCyclesPerSec are aggregate throughputs of the
	// recording and restoring passes.
	ColdCyclesPerSec float64 `json:"cold_cycles_per_sec"`
	WarmCyclesPerSec float64 `json:"warm_cycles_per_sec"`
	// SpeedupVsCold is cold wall time / warm wall time.
	SpeedupVsCold float64 `json:"speedup_vs_cold"`
	// SnapshotBytes is the total size of the published snapshot artifacts.
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// CoreBench is the BENCH_core.json artifact: the perf contract of the cycle
// engine, gated in CI against the committed baseline.
type CoreBench struct {
	// CalibNsPerOp is a fixed pure-CPU reference measurement taken on the
	// machine that produced the records. Gating scales the baseline's
	// ns/cycle by the ratio of the two calibrations, so a slower CI runner
	// is compared against what the baseline machine would have measured
	// there, not against its absolute numbers.
	CalibNsPerOp float64 `json:"calib_ns_per_op"`
	// Insts is the per-run trace length the records were measured with.
	Insts int `json:"insts"`
	// Records is one entry per (profile × engine) grid point.
	Records []CoreBenchRecord `json:"records"`
	// GridSnapshot is the warm-state snapshot measurement (nil in artifacts
	// written before snapshots existed).
	GridSnapshot *GridSnapshotRecord `json:"grid_snapshot,omitempty"`
}

// CoreBenchProfiles is the default measurement grid: two front-end-bound
// profiles and the two miss-heavy pointer chasers the event-horizon clock
// exists for.
var CoreBenchProfiles = []string{"gzip", "gcc", "mcf", "twolf"}

// CoreBenchEngines is the default engine axis (all four schemes).
var CoreBenchEngines = []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP}

// Calibrate runs a fixed xorshift loop and returns its ns/op: a
// machine-speed reference that makes committed ns/cycle baselines portable
// across hosts of different speeds (see CoreBench.CalibNsPerOp).
func Calibrate() float64 {
	const iters = 1 << 22
	best := float64(0)
	for rep := 0; rep < 3; rep++ {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns := float64(time.Since(start).Nanoseconds()) / iters
		if x == 0 { // defeat dead-code elimination; never true for this seed
			ns++
		}
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// coreBenchConfig is the fixed grid-point configuration: the 90nm node with
// a 2KB L1, the regime where both instruction delivery and data stalls are
// exercised.
func coreBenchConfig(eng core.EngineKind, noSkip bool) core.Config {
	return core.Config{
		Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: eng,
		UseL0: eng == core.EngineCLGP, PreBufferEntries: 8, NoSkip: noSkip,
	}
}

// timedRun executes one engine run and returns (wall, cycles, skipped,
// mallocs) for it.
func timedRun(cfg core.Config, w *workload.Workload) (time.Duration, uint64, uint64, uint64, error) {
	eng, err := core.NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := eng.Run(); err != nil {
		return 0, 0, 0, 0, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, eng.Cycles(), eng.SkippedCycles(), after.Mallocs - before.Mallocs, nil
}

// MeasureCore benchmarks the cycle engine over profiles × engines with
// insts-long traces (0 selects 200000) and returns the BENCH_core records.
// Each mode is run five times and the fastest wall time kept — the minimum
// reliably touches the machine's quiet-moment floor, so baseline and gate
// runs measure the same thing even when individual reps absorb scheduler
// noise on shared runners.
func MeasureCore(profiles []string, engines []core.EngineKind, insts int, seed int64) (*CoreBench, error) {
	if len(profiles) == 0 {
		profiles = CoreBenchProfiles
	}
	if len(engines) == 0 {
		engines = CoreBenchEngines
	}
	if insts <= 0 {
		insts = 200_000
	}
	cb := &CoreBench{CalibNsPerOp: Calibrate(), Insts: insts}
	for _, prof := range profiles {
		p, err := workload.ProfileByName(prof)
		if err != nil {
			return nil, err
		}
		w, err := workload.Generate(p, insts, seed)
		if err != nil {
			return nil, err
		}
		for _, ek := range engines {
			var rec CoreBenchRecord
			rec.Profile, rec.Engine = prof, ek.String()
			rec.Name = prof + "/" + ek.String()
			var skipWall, noskipWall time.Duration
			var allocs uint64
			for rep := 0; rep < 5; rep++ {
				wall, cycles, skipped, mallocs, err := timedRun(coreBenchConfig(ek, false), w)
				if err != nil {
					return nil, fmt.Errorf("corebench %s: %w", rec.Name, err)
				}
				if skipWall == 0 || wall < skipWall {
					skipWall, allocs = wall, mallocs
				}
				rec.Cycles, rec.SkippedCycles = cycles, skipped
				wall, refCycles, _, _, err := timedRun(coreBenchConfig(ek, true), w)
				if err != nil {
					return nil, fmt.Errorf("corebench %s (noskip): %w", rec.Name, err)
				}
				if refCycles != rec.Cycles {
					return nil, fmt.Errorf("corebench %s: skip path simulated %d cycles, no-skip %d — equivalence broken",
						rec.Name, rec.Cycles, refCycles)
				}
				if noskipWall == 0 || wall < noskipWall {
					noskipWall = wall
				}
			}
			rec.Committed = uint64(insts)
			rec.SkippedFrac = float64(rec.SkippedCycles) / float64(rec.Cycles)
			rec.NsPerCycle = float64(skipWall.Nanoseconds()) / float64(rec.Cycles)
			rec.CyclesPerSec = float64(rec.Cycles) / skipWall.Seconds()
			rec.NoSkipNsPerCycle = float64(noskipWall.Nanoseconds()) / float64(rec.Cycles)
			rec.NoSkipCyclesPerSec = float64(rec.Cycles) / noskipWall.Seconds()
			rec.SpeedupVsNoSkip = rec.CyclesPerSec / rec.NoSkipCyclesPerSec
			rec.AllocsPerKCycle = 1000 * float64(allocs) / float64(rec.Cycles)
			cb.Records = append(cb.Records, rec)
		}
	}
	return cb, nil
}

// snapshotGridJobs builds the snapshot measurement grid: all four engines
// over two L1 sizes, every point with its own warm key, all sharing one
// in-memory workload.
func snapshotGridJobs(w *workload.Workload, warmup int, store SnapshotStore) []Job {
	jobs := SweepJobs(w, cacti.Tech90,
		[]int{1 << 10, 2 << 10},
		[]core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP},
		false, 0)
	for i := range jobs {
		jobs[i].Warmup = warmup
		jobs[i].Snapshots = store
	}
	return jobs
}

// MeasureSnapshotGrid measures the GridSnapshot record: one profile's grid
// run cold (empty store: full warm-up plus snapshot recording) and warm
// (restore, simulate only the measurement interval), both serial, best of
// three reps each. Warm-up is half the run by construction. It fails if
// either pass's results differ from a plain snapshot-less run — the speedup
// is only meaningful over bit-identical work.
func MeasureSnapshotGrid(profile string, insts int, seed int64) (*GridSnapshotRecord, error) {
	if insts <= 0 {
		insts = 200_000
	}
	warmup := insts / 2
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(p, insts, seed)
	if err != nil {
		return nil, err
	}
	plainJobs := snapshotGridJobs(w, 0, nil)
	rn := Runner{Workers: 1}
	plain := rn.Run(plainJobs)
	for i, r := range plain {
		if r.Err != nil {
			return nil, fmt.Errorf("snapshot grid %s: plain run: %w", plainJobs[i].Name, r.Err)
		}
	}
	check := func(pass string, res []Result) error {
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("snapshot grid %s: %s pass: %w", plainJobs[i].Name, pass, r.Err)
			}
			if !reflect.DeepEqual(r.Stats.WithoutTelemetry(), plain[i].Stats.WithoutTelemetry()) {
				return fmt.Errorf("snapshot grid %s: %s pass diverges from the plain run — equivalence broken",
					plainJobs[i].Name, pass)
			}
		}
		return nil
	}

	var coldWall, warmWall time.Duration
	var snapBytes int64
	for rep := 0; rep < 3; rep++ {
		dir, err := os.MkdirTemp("", "clgp-snap-bench")
		if err != nil {
			return nil, err
		}
		jobs := snapshotGridJobs(w, warmup, DirSnapshots{Dir: dir})

		start := time.Now()
		cold := rn.Run(jobs)
		wall := time.Since(start)
		if err := check("cold", cold); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if coldWall == 0 || wall < coldWall {
			coldWall = wall
		}

		start = time.Now()
		warm := rn.Run(jobs)
		wall = time.Since(start)
		if err := check("warm", warm); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if warmWall == 0 || wall < warmWall {
			warmWall = wall
		}

		if rep == 0 {
			ents, err := os.ReadDir(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			if len(ents) != len(jobs) {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("snapshot grid: cold pass published %d artifacts for %d points", len(ents), len(jobs))
			}
			for _, e := range ents {
				if info, err := e.Info(); err == nil {
					snapBytes += info.Size()
				}
			}
		}
		os.RemoveAll(dir)
	}
	var cycles uint64
	for _, r := range plain {
		cycles += r.Stats.Cycles
	}
	gs := &GridSnapshotRecord{
		Profile:          profile,
		Points:           len(plainJobs),
		Insts:            insts,
		Warmup:           warmup,
		Cycles:           cycles,
		ColdCyclesPerSec: float64(cycles) / coldWall.Seconds(),
		WarmCyclesPerSec: float64(cycles) / warmWall.Seconds(),
		SnapshotBytes:    snapBytes,
	}
	gs.SpeedupVsCold = coldWall.Seconds() / warmWall.Seconds()
	return gs, nil
}

// WriteCoreBench writes the artifact as indented JSON.
func WriteCoreBench(path string, cb *CoreBench) error {
	data, err := json.MarshalIndent(cb, "", "  ")
	if err != nil {
		return fmt.Errorf("sim: encoding core bench: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("sim: writing %s: %w", path, err)
	}
	return nil
}

// LoadCoreBench reads a BENCH_core.json artifact.
func LoadCoreBench(path string) (*CoreBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cb CoreBench
	if err := json.Unmarshal(data, &cb); err != nil {
		return nil, fmt.Errorf("sim: parsing %s: %w", path, err)
	}
	return &cb, nil
}

// GateLimits parameterises the perf gate.
type GateLimits struct {
	// MaxRegress is the tolerated ns/cycle growth over the
	// calibration-scaled baseline (0.10 = 10%).
	MaxRegress float64
	// NoiseNs is an absolute slack added on top of the relative budget:
	// deltas smaller than a few ns/cycle are scheduler noise, not
	// regressions — without the floor, a 4ns wobble on a 35ns mcf record
	// would flake the gate while a genuine 40ns regression on a 300ns
	// record sailed through.
	NoiseNs float64
	// MinMissHeavySpeedup is the floor on SpeedupVsNoSkip for the
	// miss-heavy profiles (mcf) — the event-horizon clock's reason
	// to exist.
	MinMissHeavySpeedup float64
	// MinSpeedup is the floor on SpeedupVsNoSkip everywhere: no profile
	// may be slower with skipping than without (0.95 leaves measurement
	// noise room).
	MinSpeedup float64
	// MaxAllocsPerKCycle bounds whole-run heap allocations; a single
	// per-cycle allocation would show up as ~1000.
	MaxAllocsPerKCycle float64
	// MinSnapshotSpeedup is the floor on the grid_snapshot record's
	// SpeedupVsCold. The warm pass simulates half the instructions of the
	// cold pass (warm-up is Insts/2), so the work ratio alone predicts ~2x;
	// restore/deserialisation overhead and the non-linearity of warm-up
	// cycles vs measurement cycles eat into it. 1.2 is the honest floor: if
	// restoring is not at least 20% faster than re-simulating a
	// warm-up-dominated grid, the snapshot path has regressed into
	// pointlessness.
	MinSnapshotSpeedup float64
}

// DefaultGateLimits returns the limits CI enforces.
func DefaultGateLimits() GateLimits {
	return GateLimits{MaxRegress: 0.10, NoiseNs: 8, MinMissHeavySpeedup: 1.6, MinSpeedup: 0.95, MaxAllocsPerKCycle: 1.0, MinSnapshotSpeedup: 1.2}
}

// missHeavy reports whether a profile is one of the pointer-chase grid
// points the ≥2× tentpole targets. twolf dropped off this list when the
// backend-idle walk gate landed: eliding dead RUU walks speeds the
// per-cycle baseline up too, which compressed twolf's skip-vs-noskip
// ratio to ~1.2–1.3× (it is moderately miss-heavy, so most of its wins
// came from walk elision, which both clock modes now share). mcf's long
// memory stalls keep cycle skipping itself decisively ahead (~2×).
// twolf remains bound by MinSpeedup like every other profile.
func missHeavy(profile string) bool { return profile == "mcf" }

// calibScale is the ratio by which the gate and the comparison table scale
// the baseline's ns/cycle to the current machine. It protects slower
// machines from false failures by scaling the baseline up, and is clamped
// at 1 so a burst of turbo on a faster (or merely less loaded) machine can
// never scale the allowed bound *below* the committed baseline and
// manufacture regressions out of calibration noise.
func calibScale(baseline, current *CoreBench) float64 {
	if baseline != nil && baseline.CalibNsPerOp > 0 && current.CalibNsPerOp > baseline.CalibNsPerOp {
		return current.CalibNsPerOp / baseline.CalibNsPerOp
	}
	return 1.0
}

// Gate checks current against the committed baseline (nil skips the
// regression comparison) and the machine-independent invariants, returning
// one human-readable violation per failure; an empty slice is a pass.
func Gate(baseline, current *CoreBench, lim GateLimits) []string {
	var bad []string
	if baseline != nil && baseline.Insts != current.Insts {
		// ns/cycle folds cold-start cost over the run length, so only
		// same-length measurements are comparable.
		bad = append(bad, fmt.Sprintf("measured with %d insts but the baseline used %d — rerun with -core-insts %d",
			current.Insts, baseline.Insts, baseline.Insts))
		return bad
	}
	scale := calibScale(baseline, current)
	base := map[string]CoreBenchRecord{}
	if baseline != nil {
		for _, r := range baseline.Records {
			base[r.Name] = r
		}
	}
	for _, r := range current.Records {
		if b, ok := base[r.Name]; ok {
			allowed := b.NsPerCycle*scale*(1+lim.MaxRegress) + lim.NoiseNs
			if r.NsPerCycle > allowed {
				bad = append(bad, fmt.Sprintf("%s: %.1f ns/cycle exceeds baseline %.1f (allowed %.1f: calibration-scaled +%.0f%% +%.0fns noise floor)",
					r.Name, r.NsPerCycle, b.NsPerCycle, allowed, 100*lim.MaxRegress, lim.NoiseNs))
			}
		}
		if missHeavy(r.Profile) && r.SpeedupVsNoSkip < lim.MinMissHeavySpeedup {
			bad = append(bad, fmt.Sprintf("%s: event-horizon speedup %.2fx below the miss-heavy floor %.2fx",
				r.Name, r.SpeedupVsNoSkip, lim.MinMissHeavySpeedup))
		}
		if r.SpeedupVsNoSkip < lim.MinSpeedup {
			bad = append(bad, fmt.Sprintf("%s: skipping is slower than the per-cycle path (%.2fx < %.2fx)",
				r.Name, r.SpeedupVsNoSkip, lim.MinSpeedup))
		}
		if r.AllocsPerKCycle > lim.MaxAllocsPerKCycle {
			bad = append(bad, fmt.Sprintf("%s: %.2f allocs per 1000 cycles exceeds %.2f — the loop is allocating",
				r.Name, r.AllocsPerKCycle, lim.MaxAllocsPerKCycle))
		}
	}
	switch gs := current.GridSnapshot; {
	case gs != nil:
		if gs.SpeedupVsCold < lim.MinSnapshotSpeedup {
			bad = append(bad, fmt.Sprintf("grid_snapshot/%s: warm-restore speedup %.2fx below the %.2fx floor over cold warm-up",
				gs.Profile, gs.SpeedupVsCold, lim.MinSnapshotSpeedup))
		}
	case baseline != nil && baseline.GridSnapshot != nil:
		bad = append(bad, "grid_snapshot: present in baseline but not measured")
	}
	for name := range base {
		found := false
		for _, r := range current.Records {
			if r.Name == name {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("%s: present in baseline but not measured", name))
		}
	}
	sort.Strings(bad)
	return bad
}

// FormatCoreComparison renders a benchstat-style table of current against
// baseline (which may be nil for a plain report).
func FormatCoreComparison(baseline, current *CoreBench) string {
	var sb strings.Builder
	scale := calibScale(baseline, current)
	base := map[string]CoreBenchRecord{}
	if baseline != nil {
		for _, r := range baseline.Records {
			base[r.Name] = r
		}
		fmt.Fprintf(&sb, "%-16s %12s %12s %8s %10s %8s\n", "grid point", "base ns/cyc", "now ns/cyc", "delta", "speedup", "skipped")
	} else {
		fmt.Fprintf(&sb, "%-16s %12s %12s %8s %10s %8s\n", "grid point", "ns/cyc", "noskip", "", "speedup", "skipped")
	}
	for _, r := range current.Records {
		if b, ok := base[r.Name]; ok {
			scaled := b.NsPerCycle * scale
			fmt.Fprintf(&sb, "%-16s %12.1f %12.1f %+7.1f%% %9.2fx %7.1f%%\n",
				r.Name, scaled, r.NsPerCycle, 100*(r.NsPerCycle-scaled)/scaled, r.SpeedupVsNoSkip, 100*r.SkippedFrac)
		} else {
			fmt.Fprintf(&sb, "%-16s %12.1f %12.1f %8s %9.2fx %7.1f%%\n",
				r.Name, r.NsPerCycle, r.NoSkipNsPerCycle, "", r.SpeedupVsNoSkip, 100*r.SkippedFrac)
		}
	}
	if baseline != nil {
		fmt.Fprintf(&sb, "(baseline scaled by %.2f via the calibration loop: %.2f -> %.2f ns/op)\n",
			scale, baseline.CalibNsPerOp, current.CalibNsPerOp)
	}
	return sb.String()
}
