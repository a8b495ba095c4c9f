package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
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

// CoreBench is one `clgpsim bench` measurement of the cycle engine: the
// child record the perf gate collects from the parent and the change build.
// JSON that still carries the calib_ns_per_op field of earlier builds parses
// (the field is ignored), so a parent built before the paired gate existed
// can be measured.
type CoreBench struct {
	// Insts is the per-run trace length the records were measured with.
	Insts int `json:"insts"`
	// Records is one entry per (profile × engine) grid point.
	Records []CoreBenchRecord `json:"records"`
	// GridSnapshot is the warm-state snapshot measurement.
	GridSnapshot *GridSnapshotRecord `json:"grid_snapshot,omitempty"`
}

// The single configuration `clgpsim bench` measures.
const (
	// CoreBenchInsts is the trace length of every grid point and of the
	// snapshot grid.
	CoreBenchInsts = 200_000
	// CoreBenchSeed is the workload generation seed.
	CoreBenchSeed = 1
	// SnapshotGridProfile is the workload the grid_snapshot record sweeps.
	SnapshotGridProfile = "gcc"
	// GatePairs is the number of alternating parent/change measurement
	// pairs the gate takes.
	GatePairs = 5
)

// CoreBenchProfiles is the default measurement grid: two front-end-bound
// profiles and the two miss-heavy pointer chasers the event-horizon clock
// exists for.
var CoreBenchProfiles = []string{"gzip", "gcc", "mcf", "twolf"}

// CoreBenchEngines is the default engine axis (all four schemes).
var CoreBenchEngines = []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP}

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
// insts-long traces (0 selects CoreBenchInsts) and returns the records.
// Each mode is run five times and the fastest wall time kept — the minimum
// reliably touches the machine's quiet-moment floor, so individual reps that
// absorb scheduler noise on shared runners do not count.
func MeasureCore(profiles []string, engines []core.EngineKind, insts int, seed int64) (*CoreBench, error) {
	if len(profiles) == 0 {
		profiles = CoreBenchProfiles
	}
	if len(engines) == 0 {
		engines = CoreBenchEngines
	}
	if insts <= 0 {
		insts = CoreBenchInsts
	}
	cb := &CoreBench{Insts: insts}
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
	var jobs []Job
	for _, eng := range CoreBenchEngines {
		for _, size := range []int{1 << 10, 2 << 10} {
			cfg := core.Config{Tech: cacti.Tech90, L1ISize: size, Engine: eng}
			cfg.Name = JobName(w.Name, eng, cfg.Tech, size, false, false)
			jobs = append(jobs, Job{Config: cfg, Workload: w, Warmup: warmup, Snapshots: store})
		}
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
		insts = CoreBenchInsts
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
			return nil, fmt.Errorf("snapshot grid %s: plain run: %w", plainJobs[i].Config.Name, r.Err)
		}
	}
	check := func(pass string, res []Result) error {
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("snapshot grid %s: %s pass: %w", plainJobs[i].Config.Name, pass, r.Err)
			}
			if !reflect.DeepEqual(r.Stats.WithoutTelemetry(), plain[i].Stats.WithoutTelemetry()) {
				return fmt.Errorf("snapshot grid %s: %s pass diverges from the plain run — equivalence broken",
					plainJobs[i].Config.Name, pass)
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

// LoadCoreBench reads a measurement written by WriteCoreBench.
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

// The perf gate's budget and floors.
const (
	// MaxRegress is the tolerated ns/cycle growth of the change over the
	// parent build measured on the same host (0.10 = 10%).
	MaxRegress = 0.10
	// NoiseNs is an absolute slack, in ns/cycle over the parent's median,
	// added on top of the relative budget: deltas smaller than a few
	// ns/cycle are scheduler noise, not regressions — without the floor, a
	// 4ns wobble on a 35ns mcf record would flake the gate while a genuine
	// 40ns regression on a 300ns record sailed through.
	NoiseNs = 8.0
	// minMissHeavySpeedup is the floor on SpeedupVsNoSkip for the
	// miss-heavy profiles (mcf) — the event-horizon clock's reason to exist.
	minMissHeavySpeedup = 1.6
	// minSpeedup is the floor on SpeedupVsNoSkip everywhere: no profile may
	// be slower with skipping than without (0.95 leaves measurement noise
	// room).
	minSpeedup = 0.95
	// maxAllocsPerKCycle bounds whole-run heap allocations; a single
	// per-cycle allocation would show up as ~1000.
	maxAllocsPerKCycle = 1.0
	// minSnapshotSpeedup is the floor on the grid_snapshot record's
	// SpeedupVsCold. The warm pass simulates half the instructions of the
	// cold pass (warm-up is Insts/2), so the work ratio alone predicts ~2x;
	// restore/deserialisation overhead and the non-linearity of warm-up
	// cycles vs measurement cycles eat into it. 1.2 is the honest floor: if
	// restoring is not at least 20% faster than re-simulating a
	// warm-up-dominated grid, the snapshot path has regressed into
	// pointlessness.
	minSnapshotSpeedup = 1.2
)

// missHeavy reports whether a profile is one of the pointer-chase grid
// points the ≥2× tentpole targets. twolf dropped off this list when the
// backend-idle walk gate landed: eliding dead RUU walks speeds the
// per-cycle baseline up too, which compressed twolf's skip-vs-noskip
// ratio to ~1.2–1.3× (it is moderately miss-heavy, so most of its wins
// came from walk elision, which both clock modes now share). mcf's long
// memory stalls keep cycle skipping itself decisively ahead (~2×).
// twolf remains bound by minSpeedup like every other profile.
func missHeavy(profile string) bool { return profile == "mcf" }

// MeasurePairs takes the gate's measurements: pairs rounds of
// `<bin> bench -core-json <file>` for the parent and the change binary, on
// this host, alternating which side runs first so drift in the host's speed
// falls on both sides alike. Each child writes
// dir/BENCH_core.<side>-<round>.json. A child that exits non-zero or writes
// no readable measurement is an error. One progress line per child goes to
// progress.
func MeasurePairs(parentBin, changeBin, dir string, pairs int, progress io.Writer) (parent, change []*CoreBench, err error) {
	sides := [2]struct {
		name, bin string
		runs      *[]*CoreBench
	}{{"parent", parentBin, &parent}, {"change", changeBin, &change}}
	for i := 0; i < pairs; i++ {
		for k := 0; k < 2; k++ {
			sd := sides[(i+k)%2]
			out := filepath.Join(dir, fmt.Sprintf("BENCH_core.%s-%d.json", sd.name, i+1))
			start := time.Now()
			cb, err := runBenchChild(sd.bin, out)
			if err != nil {
				return nil, nil, fmt.Errorf("pair %d/%d, %s: %w", i+1, pairs, sd.name, err)
			}
			fmt.Fprintf(progress, "pair %d/%d: %s measured in %v -> %s\n",
				i+1, pairs, sd.name, time.Since(start).Round(100*time.Millisecond), out)
			*sd.runs = append(*sd.runs, cb)
		}
	}
	return parent, change, nil
}

// runBenchChild runs one `bin bench -core-json out` child and loads what it
// wrote. A stale file at out is removed first, so only this child's output
// can satisfy the read.
func runBenchChild(bin, out string) (*CoreBench, error) {
	if err := os.Remove(out); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	var log bytes.Buffer
	cmd := exec.Command(bin, "bench", "-core-json", out)
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s bench: %w\n%s", bin, err, log.Bytes())
	}
	cb, err := LoadCoreBench(out)
	if err != nil {
		return nil, fmt.Errorf("%s bench wrote no measurement: %w", bin, err)
	}
	return cb, nil
}

// pairedPoint is one grid point over the gate's paired runs.
type pairedPoint struct {
	name, profile string
	// parent and change hold the point's record from each run; pair i is
	// (parent[i], change[i]).
	parent, change []CoreBenchRecord
	// ratio is the median of the per-pair change/parent ns/cycle ratios.
	ratio float64
	// speedup, allocs and skipped are the change's medians of
	// SpeedupVsNoSkip, AllocsPerKCycle and SkippedFrac.
	speedup, allocs, skipped float64
}

// pairPoints folds the paired runs into per-point medians, in the order the
// points first appear. A point is folded only when every run of both sides
// measured it, over a non-empty run, with the same committed-instruction
// count; otherwise it is reported in bad instead. Unpairable run sets (Gate
// reports them) fold to nothing.
func pairPoints(parent, change []*CoreBench) (pts []pairedPoint, bad []string) {
	if len(parent) == 0 || len(parent) != len(change) {
		return nil, nil
	}
	byName := func(runs []*CoreBench) map[string][]CoreBenchRecord {
		m := map[string][]CoreBenchRecord{}
		for _, cb := range runs {
			for _, r := range cb.Records {
				m[r.Name] = append(m[r.Name], r)
			}
		}
		return m
	}
	pRecs, cRecs := byName(parent), byName(change)
	seen := map[string]bool{}
	for _, cb := range append(append([]*CoreBench(nil), parent...), change...) {
		for _, r := range cb.Records {
			if seen[r.Name] {
				continue
			}
			seen[r.Name] = true
			p, c := pRecs[r.Name], cRecs[r.Name]
			if len(p) != len(parent) || len(c) != len(change) {
				bad = append(bad, fmt.Sprintf("%s: measured in %d/%d parent and %d/%d change runs",
					r.Name, len(p), len(parent), len(c), len(change)))
				continue
			}
			if problem := checkRecords(p, c); problem != "" {
				bad = append(bad, r.Name+": "+problem)
				continue
			}
			ratios := make([]float64, len(p))
			for i := range p {
				ratios[i] = c[i].NsPerCycle / p[i].NsPerCycle
			}
			pts = append(pts, pairedPoint{
				name: r.Name, profile: r.Profile, parent: p, change: c,
				ratio:   median(ratios),
				speedup: medianOf(c, func(r CoreBenchRecord) float64 { return r.SpeedupVsNoSkip }),
				allocs:  medianOf(c, func(r CoreBenchRecord) float64 { return r.AllocsPerKCycle }),
				skipped: medianOf(c, func(r CoreBenchRecord) float64 { return r.SkippedFrac }),
			})
		}
	}
	return pts, bad
}

// checkRecords returns why a point's records cannot be compared, or "": every
// record, on both sides, must have timed a non-empty run and committed the
// same instruction count.
func checkRecords(parent, change []CoreBenchRecord) string {
	for _, recs := range [][]CoreBenchRecord{parent, change} {
		for _, r := range recs {
			if r.Cycles == 0 || r.NsPerCycle <= 0 {
				return "a run measured no cycles"
			}
			if r.Committed != parent[0].Committed {
				return "committed-instruction counts differ between runs"
			}
		}
	}
	return ""
}

// pairedProfile is one profile's cycle-weighted ns/cycle over the gate's
// paired runs: the total wall time of its grid points over their total
// simulated cycles, per run.
type pairedProfile struct {
	name   string
	points []string
	// parentNs is the parent's median; ratio is the median of the per-pair
	// change/parent ratios and allowed the largest ratio the budget
	// tolerates at parentNs.
	parentNs, ratio, allowed float64
}

// pairProfiles folds paired points into per-profile cycle-weighted
// ns/cycle, in the order the profiles first appear.
func pairProfiles(pts []pairedPoint) []pairedProfile {
	var order []string
	byProfile := map[string][]pairedPoint{}
	for _, p := range pts {
		if byProfile[p.profile] == nil {
			order = append(order, p.profile)
		}
		byProfile[p.profile] = append(byProfile[p.profile], p)
	}
	var out []pairedProfile
	for _, name := range order {
		group := byProfile[name]
		parent := weightedNs(group, func(p pairedPoint) []CoreBenchRecord { return p.parent })
		change := weightedNs(group, func(p pairedPoint) []CoreBenchRecord { return p.change })
		ratios := make([]float64, len(parent))
		for i := range parent {
			ratios[i] = change[i] / parent[i]
		}
		pp := pairedProfile{name: name, parentNs: median(parent), ratio: median(ratios)}
		pp.allowed = 1 + MaxRegress + NoiseNs/pp.parentNs
		for _, p := range group {
			pp.points = append(pp.points, p.name)
		}
		out = append(out, pp)
	}
	return out
}

// weightedNs returns, per run, the cycle-weighted ns/cycle over one side of
// a profile's points.
func weightedNs(group []pairedPoint, side func(pairedPoint) []CoreBenchRecord) []float64 {
	ns := make([]float64, len(side(group[0])))
	for i := range ns {
		var wall, cycles float64
		for _, p := range group {
			r := side(p)[i]
			wall += r.NsPerCycle * float64(r.Cycles)
			cycles += float64(r.Cycles)
		}
		ns[i] = wall / cycles
	}
	return ns
}

// Gate judges the change build's runs against the parent build's runs,
// taken in alternating pairs on one host: parent[i] and change[i] are pair
// i. A profile regresses when the median of its per-pair change/parent
// ratios of cycle-weighted ns/cycle (the total wall time of its grid points
// over their total cycles) exceeds the budget, MaxRegress plus NoiseNs over
// the parent's median. Profiles, not single grid points, are judged because
// a point's ratio alone swings too far between identical builds on a shared
// host for five pairs to settle it. Each within-run floor is judged per
// point on the change's median over its runs. Both sides must have measured
// the same trace length and, at every point, committed the same instruction
// count; a point or a grid_snapshot record missing from any run is reported,
// never skipped. Gate returns one human-readable violation per failure,
// sorted; an empty slice is a pass.
func Gate(parent, change []*CoreBench) []string {
	if len(parent) == 0 || len(parent) != len(change) {
		return []string{fmt.Sprintf("need the same non-zero number of parent and change runs, got %d and %d",
			len(parent), len(change))}
	}
	var bad []string
	// ns/cycle folds cold-start cost over the run length, so only
	// same-length measurements are comparable.
	for i := range parent {
		if parent[i].Insts != parent[0].Insts || change[i].Insts != parent[0].Insts {
			bad = append(bad, fmt.Sprintf("pair %d measured %d (parent) and %d (change) insts, pair 1's parent %d",
				i+1, parent[i].Insts, change[i].Insts, parent[0].Insts))
		}
	}
	if len(bad) > 0 {
		return bad
	}
	pts, bad := pairPoints(parent, change)
	for _, p := range pairProfiles(pts) {
		if p.ratio > p.allowed {
			bad = append(bad, fmt.Sprintf("%s (%s): median change/parent cycle-weighted ns/cycle ratio %.3f exceeds %.3f (+%.0f%% +%.0fns over the parent's median %.1f ns/cycle)",
				p.name, strings.Join(p.points, ", "), p.ratio, p.allowed, 100*MaxRegress, NoiseNs, p.parentNs))
		}
	}
	for _, p := range pts {
		if missHeavy(p.profile) && p.speedup < minMissHeavySpeedup {
			bad = append(bad, fmt.Sprintf("%s: median event-horizon speedup %.2fx below the miss-heavy floor %.2fx",
				p.name, p.speedup, minMissHeavySpeedup))
		}
		if p.speedup < minSpeedup {
			bad = append(bad, fmt.Sprintf("%s: skipping is slower than the per-cycle path (median %.2fx < %.2fx)",
				p.name, p.speedup, minSpeedup))
		}
		if p.allocs > maxAllocsPerKCycle {
			bad = append(bad, fmt.Sprintf("%s: median %.2f allocs per 1000 cycles exceeds %.2f — the loop is allocating",
				p.name, p.allocs, maxAllocsPerKCycle))
		}
	}
	if ps, cs := snapshotSpeedups(parent), snapshotSpeedups(change); len(ps) != len(parent) || len(cs) != len(change) {
		bad = append(bad, fmt.Sprintf("grid_snapshot: measured in %d/%d parent and %d/%d change runs",
			len(ps), len(parent), len(cs), len(change)))
	} else if m := median(cs); m < minSnapshotSpeedup {
		bad = append(bad, fmt.Sprintf("grid_snapshot/%s: median warm-restore speedup %.2fx below the %.2fx floor over cold warm-up",
			change[0].GridSnapshot.Profile, m, minSnapshotSpeedup))
	}
	sort.Strings(bad)
	return bad
}

// snapshotSpeedups returns the grid_snapshot speedups of the runs that
// carry the record.
func snapshotSpeedups(runs []*CoreBench) []float64 {
	var xs []float64
	for _, cb := range runs {
		if cb.GridSnapshot != nil {
			xs = append(xs, cb.GridSnapshot.SpeedupVsCold)
		}
	}
	return xs
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(recs []CoreBenchRecord, f func(CoreBenchRecord) float64) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = f(r)
	}
	return median(xs)
}

// FormatCoreBench renders one measurement as a table.
func FormatCoreBench(cb *CoreBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s %10s %9s %8s %12s\n", "grid point", "ns/cyc", "noskip", "speedup", "skipped", "allocs/kcyc")
	for _, r := range cb.Records {
		fmt.Fprintf(&sb, "%-16s %10.1f %10.1f %8.2fx %7.1f%% %12.2f\n",
			r.Name, r.NsPerCycle, r.NoSkipNsPerCycle, r.SpeedupVsNoSkip, 100*r.SkippedFrac, r.AllocsPerKCycle)
	}
	if gs := cb.GridSnapshot; gs != nil {
		fmt.Fprintf(&sb, "grid_snapshot/%s: %d points: %12.0f cycles/sec warm vs %12.0f cold (%.2fx), %d artifact bytes\n",
			gs.Profile, gs.Points, gs.WarmCyclesPerSec, gs.ColdCyclesPerSec, gs.SpeedupVsCold, gs.SnapshotBytes)
	}
	return sb.String()
}

// FormatCoreComparison renders the gate's medians over paired parent and
// change runs: per grid point, each side's median ns/cycle, the median
// per-pair ratio and the change's median speedup over the per-cycle path
// and skipped share; per profile, the judged cycle-weighted ratio and the
// ratio the budget allows. Points the gate cannot pair are left out (Gate
// reports them).
func FormatCoreComparison(parent, change []*CoreBench) string {
	var sb strings.Builder
	pts, _ := pairPoints(parent, change)
	nsPerCycle := func(r CoreBenchRecord) float64 { return r.NsPerCycle }
	fmt.Fprintf(&sb, "%-16s %12s %12s %8s %8s %9s %8s\n",
		"grid point", "parent ns/c", "change ns/c", "ratio", "allowed", "speedup", "skipped")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%-16s %12.1f %12.1f %8.3f %8s %8.2fx %7.1f%%\n",
			p.name, medianOf(p.parent, nsPerCycle), medianOf(p.change, nsPerCycle), p.ratio, "", p.speedup, 100*p.skipped)
	}
	for _, p := range pairProfiles(pts) {
		fmt.Fprintf(&sb, "%-16s %12.1f %12s %8.3f %8.3f\n", p.name+" (weighted)", p.parentNs, "", p.ratio, p.allowed)
	}
	if ps, cs := snapshotSpeedups(parent), snapshotSpeedups(change); len(ps) == len(parent) && len(cs) == len(change) && len(cs) > 0 {
		fmt.Fprintf(&sb, "grid_snapshot/%s: median warm-restore speedup %.2fx (parent %.2fx)\n",
			change[0].GridSnapshot.Profile, median(cs), median(ps))
	}
	fmt.Fprintf(&sb, "(medians over %d alternating pairs; ratio is the median of per-pair change/parent ns/cycle; profiles are judged)\n", len(change))
	return sb.String()
}
