// Command clgpsim drives the CLGP simulator: it runs single configurations,
// sweeps the paper's (engine × technology × L1 size) grids through the
// sharded dispatch orchestrator, and gates the cycle engine's own speed.
//
// Usage:
//
//	clgpsim run     [-profile gcc] [-insts 200000] [-engine clgp] [-tech 90|45] [-l1 2048] [-l0] [-pb 0] [-tracefile F -window N] [-no-skip] [-warmup N -snapshot-dir D] [-cpuprofile F] [-memprofile F] [-runtime-trace F]
//	clgpsim sweep   [-profile gcc] [-insts 200000] [-seed 1] [-seeds N] [-tech 90|45] [-l0] [-workers 0] [-cpuprofile F] [-memprofile F]
//	clgpsim bench   [-core-json F] [-gate PARENT_BINARY]
//	clgpsim figures [-insts 200000] [-seeds N] [-techs 90,45] [-profiles ...] [-dir clgp-figures] [-shards 0] [-exec] [-resume] [-store URL] [-ssh h1,h2] [-retries 1] [-warmup N] [-progress] [-stall-after D] [-trace-out F] [-metrics-addr A [-metrics-addr-file F]]
//	clgpsim worker  -store LOC -shard N [-workers 0] [-metrics-addr A [-metrics-addr-file F]] [-span-parent ID] [-runtime-trace F]
//	clgpsim store   serve [-dir clgp-store] [-addr 127.0.0.1:8420] [-addr-file F]
//	clgpsim trace   record|info|slice ...
//
// Every subcommand also takes -log-level (debug|info|warn|error) and
// -log-format (text|json); structured logs go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/dispatch"
	"clgp/internal/figures"
	"clgp/internal/sim"
	"clgp/internal/stats"
	"clgp/internal/trace"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "figures":
		err = cmdFigures(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "clgpsim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "clgpsim: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `clgpsim — Cache Line Guided Prestaging simulator

commands:
  run      simulate one configuration and print its statistics
  sweep    run one profile's (engine x L1 size) grid and print the IPC table
  bench    measure the cycle engine, or gate this build against a parent clgpsim binary
  figures  run/resume the sharded full-paper grid, emit Figure 1/6/7/8 series (mean±CI with -seeds)
  worker   execute one shard of a sweep store (spawned by figures -exec / -ssh)
  store    serve a sweep object store over HTTP for multi-host dispatch
  trace    record/inspect/slice on-disk trace containers
`)
}

// startProfiles starts CPU profiling and arms heap profiling per the
// -cpuprofile/-memprofile flags. The returned stop must run on exit (after
// the simulation): it finishes the CPU profile and snapshots the heap.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialise a settled heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("writing heap profile: %w", err)
			}
		}
		return nil
	}, nil
}

// profileFlags registers the shared -cpuprofile/-memprofile flags.
func profileFlags(fs *flag.FlagSet) (cpu, mem *string) {
	cpu = fs.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this path")
	mem = fs.String("memprofile", "", "write a pprof heap profile (taken on exit) to this path")
	return cpu, mem
}

// runtimeTraceFlag registers the shared -runtime-trace flag: an opt-in
// flight recorder for scheduler-level diagnosis (GC pauses, goroutine
// stalls) that pprof sampling cannot see.
func runtimeTraceFlag(fs *flag.FlagSet) *string {
	return fs.String("runtime-trace", "", "write a Go runtime execution trace (view with go tool trace) to this path")
}

// startRuntimeTrace starts the Go runtime execution tracer writing to path;
// the returned stop finishes and closes the trace. An empty path is a
// no-op.
func startRuntimeTrace(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := rtrace.Start(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting runtime trace: %w", err)
	}
	return func() error {
		rtrace.Stop()
		return f.Close()
	}, nil
}

// loadWorkload generates the named synthetic benchmark.
func loadWorkload(profile string, insts int, seed int64) (*workload.Workload, error) {
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, insts, seed)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	profile := fs.String("profile", "gcc", "workload profile (SPECint2000 stand-in name)")
	insts := fs.Int("insts", 200_000, "trace length in instructions")
	seed := fs.Int64("seed", 1, "workload generation seed")
	engine := fs.String("engine", "clgp", "instruction delivery engine (none|nextn|fdp|clgp)")
	tech := fs.String("tech", "90", "technology node (90|45)")
	l1 := fs.Int("l1", 2<<10, "L1 I-cache size in bytes (a Table 3 size: 256, 512, ..., 65536)")
	useL0 := fs.Bool("l0", false, "add the one-cycle L0 cache")
	pb := fs.Int("pb", 0, "pre-buffer entries (0 = node default)")
	ideal := fs.Bool("ideal", false, "ideal (one-cycle) instruction cache")
	traceFile := fs.String("tracefile", "", "stream the trace from this recorded container (overrides -profile/-insts/-seed)")
	window := fs.Int("window", 0, "resident-record cap when streaming (0 = default)")
	noSkip := fs.Bool("no-skip", false, "tick every cycle instead of fast-forwarding over event horizons (bit-identical results, reference mode)")
	warmup := fs.Int("warmup", 0, "warm-state snapshot boundary in committed instructions (0 = off; needs -snapshot-dir)")
	snapshotDir := fs.String("snapshot-dir", "", "directory warm-state snapshots are restored from / recorded into")
	cpuProf, memProf := profileFlags(fs)
	runtimeTrace := runtimeTraceFlag(fs)
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := logSetup(); err != nil {
		return err
	}

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(os.Stderr, "clgpsim: profile: %v\n", perr)
		}
	}()
	stopTrace, err := startRuntimeTrace(*runtimeTrace)
	if err != nil {
		return err
	}
	defer func() {
		if terr := stopTrace(); terr != nil {
			fmt.Fprintf(os.Stderr, "clgpsim: runtime trace: %v\n", terr)
		}
	}()

	tn, err := cacti.ParseTech(*tech)
	if err != nil {
		return err
	}
	ek, err := core.ParseEngineKind(*engine)
	if err != nil {
		return err
	}
	// The trace source: regenerated in memory, or windowed over a recorded
	// container whose header names the workload and seed to rebuild the
	// program image from.
	var (
		w  *workload.Workload
		tr core.TraceSource
		wt *trace.WindowTrace
	)
	if *traceFile != "" {
		var rd *tracefile.Reader
		w, rd, err = sim.OpenStreamImage(*traceFile)
		if err != nil {
			return err
		}
		defer rd.Close()
		wt, err = trace.NewWindowTrace(rd, *window)
		if err != nil {
			return err
		}
		tr = wt
	} else {
		w, err = loadWorkload(*profile, *insts, *seed)
		if err != nil {
			return err
		}
		tr = w.Trace
	}
	cfg := core.Config{
		Tech: tn, L1ISize: *l1, Engine: ek, UseL0: *useL0,
		PreBufferEntries: *pb, IdealICache: *ideal, NoSkip: *noSkip,
	}
	eng, err := core.NewEngine(cfg, w.Dict, tr)
	if err != nil {
		return err
	}
	start := time.Now()
	if *warmup > 0 {
		if *snapshotDir == "" {
			return fmt.Errorf("run: -warmup %d needs -snapshot-dir (where the warm-state snapshot lives)", *warmup)
		}
		j := sim.Job{Config: cfg, Workload: w, Warmup: *warmup,
			Snapshots: sim.DirSnapshots{Dir: *snapshotDir}}
		eng, err = j.WarmStart(eng, tr)
		if err != nil {
			return err
		}
	}
	r, err := eng.Run()
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Print(r.Summary())
	if wt != nil {
		fmt.Printf("  trace window:         %d records resident max (cap %d, %d source reads)\n",
			wt.MaxResident(), wt.Cap(), wt.SourceReads())
	}
	// The skipped-cycle count is deterministic (it depends only on the
	// simulated machine state, never on the host), so runs that must diff
	// bit-identically — streamed vs in-memory — print identical lines.
	fmt.Printf("  clock:                %d cycles fast-forwarded (%.1f%%)\n",
		eng.SkippedCycles(), 100*float64(eng.SkippedCycles())/float64(r.Cycles))
	fmt.Printf("  wall time:            %v (%.0f cycles/sec)\n",
		wall.Round(time.Millisecond), float64(r.Cycles)/wall.Seconds())
	return nil
}

// cmdSweep is a one-profile, one-node preset over the figures machinery:
// the GridSpecs grid (with only the requested L0 setting for prefetching
// engines) runs through an in-process orchestrator over a throwaway sweep
// directory and prints one IPC series per engine over the L1 sweep. On a
// replicated sweep each cell folds the replicates into mean±CI exactly as
// the figures do.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	profile := fs.String("profile", "gcc", "workload profile")
	insts := fs.Int("insts", 200_000, "trace length in instructions")
	seed := fs.Int64("seed", 1, "workload generation seed (of the first replicate)")
	seeds := fs.Int("seeds", 1, "replicate seeds per grid point (replicate r runs seed+r); >1 prints mean±CI cells")
	tech := fs.String("tech", "90", "technology node (90|45)")
	useL0 := fs.Bool("l0", false, "add the one-cycle L0 to prefetching engines")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	cpuProf, memProf := profileFlags(fs)
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lg, err := logSetup()
	if err != nil {
		return err
	}

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(os.Stderr, "clgpsim: profile: %v\n", perr)
		}
	}()

	tn, err := cacti.ParseTech(*tech)
	if err != nil {
		return err
	}
	p, err := workload.ProfileByName(*profile)
	if err != nil {
		return err
	}
	grid, err := dispatch.GridSpecs(dispatch.GridConfig{
		Profiles: []string{p.Name}, Techs: []cacti.Tech{tn},
		Insts: *insts, Seed: *seed, Seeds: *seeds, L0Variants: *useL0,
	})
	if err != nil {
		return err
	}
	var specs []dispatch.JobSpec
	for _, s := range grid {
		if s.UseL0 == *useL0 || s.Engine == core.EngineNone.String() {
			specs = append(specs, s)
		}
	}
	dir, err := os.MkdirTemp("", "clgp-sweep")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o := &dispatch.Orchestrator{Store: dispatch.NewDirStore(dir), Workers: *workers, Logger: lg}
	outcome, err := o.Run(specs, 1, false)
	if err != nil {
		return err
	}
	for _, rec := range outcome.Records {
		if rec.Err != "" {
			return fmt.Errorf("job %s failed: %s", rec.Job, rec.Err)
		}
	}

	set, reps := figures.IPCByL1(specs, outcome.Records)
	set.Title = fmt.Sprintf("IPC vs L1 size — %s @ %v", p.Name, tn)
	if reps > 1 {
		set.Title += fmt.Sprintf(" (%d seeds)", reps)
	}
	fmt.Println(set.Title)
	fmt.Print(set.Table(stats.FormatBytes))

	sum := outcome.RanSummary()
	fmt.Printf("\n%d sims in %v (%d workers): %.0f cycles/sec, %.2f sims/sec\n",
		sum.Sims, outcome.Wall.Round(time.Millisecond), sim.Runner{Workers: *workers}.EffectiveWorkers(),
		sum.CyclesPerSec(), sum.SimsPerSec())
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	coreJSON := fs.String("core-json", "", "write this run's measurement to this path as JSON (what -gate reads from its child runs)")
	parent := fs.String("gate", "", "gate this build against the parent clgpsim binary at this path: alternate parent and change bench runs on this host and fail on a regression or a breached floor")
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := logSetup(); err != nil {
		return err
	}
	if *parent != "" {
		if *coreJSON != "" {
			return fmt.Errorf("bench: -gate measures through child runs; it does not take -core-json")
		}
		return benchGate(*parent)
	}
	fmt.Printf("core engine bench: %s x %d engines, %d insts (skip vs no-skip)\n",
		strings.Join(sim.CoreBenchProfiles, "/"), len(sim.CoreBenchEngines), sim.CoreBenchInsts)
	cb, err := sim.MeasureCore(nil, nil, sim.CoreBenchInsts, sim.CoreBenchSeed)
	if err != nil {
		return err
	}
	fmt.Printf("snapshot grid bench: 8-point %s grid, %d insts (warm-restore vs cold, warm-up at half)\n",
		sim.SnapshotGridProfile, sim.CoreBenchInsts)
	cb.GridSnapshot, err = sim.MeasureSnapshotGrid(sim.SnapshotGridProfile, sim.CoreBenchInsts, sim.CoreBenchSeed)
	if err != nil {
		return err
	}
	fmt.Print(sim.FormatCoreBench(cb))
	if *coreJSON != "" {
		if err := sim.WriteCoreBench(*coreJSON, cb); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *coreJSON)
	}
	return nil
}

// benchGate runs the paired perf gate of this build against the parent
// binary: sim.GatePairs alternating rounds of child bench runs, each child
// writing BENCH_core.<side>-<round>.json in the working directory, judged
// by sim.Gate.
func benchGate(parentBin string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("bench gate: %d alternating pairs of %s (parent) and %s (change)\n", sim.GatePairs, parentBin, self)
	parent, change, err := sim.MeasurePairs(parentBin, self, ".", sim.GatePairs, os.Stdout)
	if err != nil {
		return fmt.Errorf("bench gate: %w", err)
	}
	fmt.Print(sim.FormatCoreComparison(parent, change))
	if bad := sim.Gate(parent, change); len(bad) > 0 {
		for _, p := range bad {
			fmt.Fprintf(os.Stderr, "bench gate: %s\n", p)
		}
		return fmt.Errorf("bench gate: %d violation(s) against %s", len(bad), parentBin)
	}
	fmt.Printf("bench gate: pass (%d grid points within +%.0f%% +%.0fns of the parent, every floor held)\n",
		len(change[0].Records), 100*sim.MaxRegress, sim.NoiseNs)
	return nil
}
