// Command clgpsim drives the CLGP simulator: it runs single configurations,
// sweeps the paper's (engine × technology × L1 size) grids in parallel, and
// benchmarks the simulator's own throughput.
//
// Usage:
//
//	clgpsim run     [-profile gcc] [-insts 200000] [-engine clgp] [-tech 90] [-l1 2048] [-l0] [-pb 0] [-tracefile F -window N] [-no-skip] [-warmup N -snapshot-dir D] [-cpuprofile F] [-memprofile F] [-runtime-trace F]
//	clgpsim sweep   [-profile gcc] [-insts 200000] [-seeds N] [-tech 90] [-workers 0] [-json BENCH_sweep.json] [-tracefile F -window N] [-store URL] [-warmup N [-snapshot-dir D]] [-cpuprofile F] [-memprofile F] [-metrics-addr A [-metrics-addr-file F]]
//	clgpsim bench   [-profile gcc] [-insts 100000] [-workers 0] [-json BENCH_clgpsim.json] [-grid=t|f] [-core-json BENCH_core.json] [-core-insts 200000] [-gate BASELINE.json] [-max-regress 0.10]
//	clgpsim figures [-insts 200000] [-seeds N] [-techs 90,45] [-profiles ...] [-dir clgp-figures] [-shards 0] [-exec] [-resume] [-store URL] [-ssh h1,h2] [-retries 1] [-warmup N] [-paper-ref refs/paper_ref.json] [-write-ref F] [-progress] [-stall-after D] [-trace-out F] [-metrics-addr A [-metrics-addr-file F]]
//	clgpsim worker  -store LOC -shard N [-workers 0] [-metrics-addr A [-metrics-addr-file F]] [-span-parent ID] [-runtime-trace F]
//	clgpsim store   serve [-dir clgp-store] [-addr 127.0.0.1:8420] [-addr-file F]
//	clgpsim trace   record|info|slice|bench ...
//
// Every subcommand also takes -log-level (debug|info|warn|error) and
// -log-format (text|json); structured logs go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/dispatch"
	"clgp/internal/sim"
	"clgp/internal/stats"
	"clgp/internal/telemetry"
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
  sweep    run an (engine x L1 size) grid in parallel and print the IPC table
  bench    measure simulator throughput (serial vs parallel) and emit BENCH json
  figures  run/resume the sharded full-paper grid, emit Figure 1/6/7/8 series (mean±CI with -seeds) and gate them against a paper reference table
  worker   execute one shard of a sweep store (spawned by figures -exec / -ssh)
  store    serve a sweep object store over HTTP for multi-host dispatch
  trace    record/inspect/slice on-disk trace containers and bench trace I/O
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
	l1 := fs.Int("l1", 2<<10, "L1 I-cache size in bytes")
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

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	profile := fs.String("profile", "gcc", "workload profile")
	insts := fs.Int("insts", 200_000, "trace length in instructions")
	seed := fs.Int64("seed", 1, "workload generation seed (of the first replicate)")
	seeds := fs.Int("seeds", 1, "replicate seeds per grid point (replicate r runs seed+r); >1 prints mean±CI cells")
	tech := fs.String("tech", "90", "technology node (90|45)")
	useL0 := fs.Bool("l0", false, "add the one-cycle L0 to prefetching engines")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write BENCH-format throughput json to this path")
	traceFile := fs.String("tracefile", "", "stream every job's trace from this recorded container (its header supplies the workload, overriding -profile/-insts/-seed)")
	storeFlag := fs.String("store", "", "fetch the streamed trace container from this object store (http(s) URL) by (-profile, -seed) fingerprint")
	window := fs.Int("window", 0, "resident-record cap when streaming (0 = default)")
	warmup := fs.Int("warmup", 0, "warm-state snapshot boundary in committed instructions (0 = off); snapshots flow through -snapshot-dir or -store")
	snapshotDir := fs.String("snapshot-dir", "", "directory warm-state snapshots are shared through (overrides -store for snapshots)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while the sweep runs (e.g. 127.0.0.1:0)")
	metricsAddrFile := fs.String("metrics-addr-file", "", "write the bound -metrics-addr listen address to this file")
	cpuProf, memProf := profileFlags(fs)
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lg, err := logSetup()
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		bound, stopMetrics, err := telemetry.StartMetricsServer(*metricsAddr, *metricsAddrFile, telemetry.Default)
		if err != nil {
			return err
		}
		defer stopMetrics()
		lg.Info("sweep metrics server up", "addr", bound)
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
	reps := *seeds
	if reps < 1 {
		reps = 1
	}
	// A recorded trace container holds exactly one (profile, seed);
	// replication needs a regenerated workload per seed.
	if reps > 1 && (*traceFile != "" || *storeFlag != "") {
		return fmt.Errorf("sweep: -seeds %d needs regenerated workloads; a recorded trace container holds one seed", reps)
	}
	// The snapshot store for -warmup: an explicit directory wins; otherwise
	// the object store doubles as the snapshot backend (dispatch.Store
	// satisfies sim.SnapshotStore), the same sharing a sharded sweep gets.
	var snapStore sim.SnapshotStore
	if *snapshotDir != "" {
		snapStore = sim.DirSnapshots{Dir: *snapshotDir}
	}
	if *storeFlag != "" {
		// The remote-fetch path: rebuild the program image from the flags,
		// compute its generation fingerprint, and pull the matching
		// container out of the store — the same resolution a remote
		// dispatch worker performs. Only an object store can serve it: a
		// directory store has no fingerprint-addressed trace space (its
		// containers are plain paths, which is what -tracefile is for).
		st, err := dispatch.OpenStore(*storeFlag)
		if err != nil {
			return err
		}
		if _, ok := st.(*dispatch.ObjectStore); !ok {
			return fmt.Errorf("-store %s is not an object-store URL; pass the container path with -tracefile instead", *storeFlag)
		}
		if snapStore == nil {
			snapStore = st
		}
		p, err := workload.ProfileByName(*profile)
		if err != nil {
			return err
		}
		dict, err := workload.BuildImage(p, *seed)
		if err != nil {
			return err
		}
		local, err := st.FetchTrace(p.Name+".clgt", workload.Fingerprint(p, dict))
		if err != nil {
			return err
		}
		*traceFile = local
	}
	var w *workload.Workload
	if *traceFile != "" {
		// Jobs share the rebuilt program image; each engine windows its own
		// reader over the container, so the full trace is never resident.
		var rd *tracefile.Reader
		w, rd, err = sim.OpenStreamImage(*traceFile)
		if err != nil {
			return err
		}
		rd.Close()
	} else {
		w, err = loadWorkload(*profile, *insts, *seed)
		if err != nil {
			return err
		}
	}
	engines := []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP}
	sizes := cacti.L1Sizes()
	// Replicate r sweeps the same grid over the workload regenerated with
	// seed+r; replicate 0 keeps the bare job names, so a single-seed sweep
	// is exactly the pre-replication one.
	var jobs []sim.Job
	for rep := 0; rep < reps; rep++ {
		wr := w
		if rep > 0 {
			wr, err = loadWorkload(*profile, *insts, *seed+int64(rep))
			if err != nil {
				return err
			}
		}
		repJobs := sim.SweepJobs(wr, tn, sizes, engines, *useL0, 0)
		for i := range repJobs {
			repJobs[i].Name = sim.ReplicateName(repJobs[i].Name, rep)
			repJobs[i].Config.Name = repJobs[i].Name
			repJobs[i].TraceFile = *traceFile
			repJobs[i].Window = *window
			if *warmup > 0 {
				if snapStore == nil {
					return fmt.Errorf("sweep: -warmup %d needs -snapshot-dir or an object-store -store to share snapshots through", *warmup)
				}
				repJobs[i].Warmup = *warmup
				repJobs[i].Snapshots = snapStore
			}
		}
		jobs = append(jobs, repJobs...)
	}

	runner := sim.Runner{Workers: *workers}
	sampler := telemetry.StartSampler(0)
	start := time.Now()
	results := runner.Run(jobs)
	wall := time.Since(start)
	usage := sampler.Stop()

	// One IPC series per engine over the L1 sweep (a paper figure); on a
	// replicated sweep each cell folds the replicates — in replicate order,
	// for bit-reproducible aggregates — into mean±CI.
	title := fmt.Sprintf("IPC vs L1 size — %s @ %v", w.Name, tn)
	if reps > 1 {
		title += fmt.Sprintf(" (%d seeds)", reps)
	}
	set := stats.SeriesSet{Title: title, XLabel: "L1I", YLabel: "IPC"}
	perRep := len(engines) * len(sizes)
	for ei, ek := range engines {
		s := &stats.Series{Name: ek.String()}
		set.Series = append(set.Series, s)
		for si, size := range sizes {
			var acc stats.Welford
			for rep := 0; rep < reps; rep++ {
				i := rep*perRep + ei*len(sizes) + si
				r := results[i]
				if r.Err != nil {
					return fmt.Errorf("job %s: %w", jobs[i].Name, r.Err)
				}
				acc.Add(r.Stats.IPC())
			}
			if reps > 1 {
				s.AddStat(float64(size), acc)
			} else {
				s.Add(float64(size), acc.Mean)
			}
		}
	}
	fmt.Println(set.Title)
	fmt.Print(set.Table(stats.FormatBytes))

	sum := sim.Summarise(results, wall)
	fmt.Printf("\n%d sims in %v (%d workers): %.0f cycles/sec, %.2f sims/sec\n",
		sum.Sims, wall.Round(time.Millisecond), runner.EffectiveWorkers(), sum.CyclesPerSec(), sum.SimsPerSec())

	if *jsonPath != "" {
		rec := sim.RecordFromSummary("sweep", runner.EffectiveWorkers(), sum)
		rec.Host = &usage
		if err := sim.WriteBenchJSON(*jsonPath, []sim.BenchRecord{rec}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	profile := fs.String("profile", "gcc", "workload profile")
	insts := fs.Int("insts", 100_000, "trace length in instructions")
	seed := fs.Int64("seed", 1, "workload generation seed")
	workers := fs.Int("workers", 0, "parallel worker pool size (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "BENCH_clgpsim.json", "BENCH output path (empty = skip)")
	grid := fs.Bool("grid", true, "run the sweep-grid throughput benches (serial/parallel/streamed)")
	coreJSON := fs.String("core-json", "BENCH_core.json", "per-engine hot-loop BENCH output path (empty = skip the core bench)")
	coreInsts := fs.Int("core-insts", 200_000, "trace length for the core engine bench")
	gatePath := fs.String("gate", "", "gate the core bench against this committed BENCH_core.json baseline (non-zero exit on regression)")
	maxRegress := fs.Float64("max-regress", 0.10, "tolerated ns/cycle growth over the calibrated baseline when gating")
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := logSetup(); err != nil {
		return err
	}
	if *grid {
		if err := benchGrid(*profile, *insts, *seed, *workers, *jsonPath); err != nil {
			return err
		}
	}
	if *coreJSON == "" && *gatePath == "" {
		return nil
	}
	fmt.Printf("core engine bench: %s x %d engines, %d insts (skip vs no-skip)\n",
		strings.Join(sim.CoreBenchProfiles, "/"), len(sim.CoreBenchEngines), *coreInsts)
	cb, err := sim.MeasureCore(nil, nil, *coreInsts, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("snapshot grid bench: %d-point %s grid, %d insts (warm-restore vs cold, warm-up at half)\n",
		8, *profile, *coreInsts)
	cb.GridSnapshot, err = sim.MeasureSnapshotGrid(*profile, *coreInsts, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("grid_snapshot: %d points: %12.0f cycles/sec warm vs %12.0f cold (%.2fx), %d artifact bytes\n",
		cb.GridSnapshot.Points, cb.GridSnapshot.WarmCyclesPerSec, cb.GridSnapshot.ColdCyclesPerSec,
		cb.GridSnapshot.SpeedupVsCold, cb.GridSnapshot.SnapshotBytes)
	var baseline *sim.CoreBench
	if *gatePath != "" {
		baseline, err = sim.LoadCoreBench(*gatePath)
		if err != nil {
			return fmt.Errorf("loading gate baseline: %w", err)
		}
	}
	fmt.Print(sim.FormatCoreComparison(baseline, cb))
	if *coreJSON != "" {
		if err := sim.WriteCoreBench(*coreJSON, cb); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *coreJSON)
	}
	if baseline != nil {
		lim := sim.DefaultGateLimits()
		lim.MaxRegress = *maxRegress
		if bad := sim.Gate(baseline, cb, lim); len(bad) > 0 {
			for _, p := range bad {
				fmt.Fprintf(os.Stderr, "bench gate: %s\n", p)
			}
			return fmt.Errorf("bench gate: %d violation(s) against %s", len(bad), *gatePath)
		}
		fmt.Printf("bench gate: pass (%d grid points within %.0f%% of %s)\n",
			len(cb.Records), 100**maxRegress, *gatePath)
	}
	return nil
}

// benchGrid is the original sweep-throughput benchmark: the 16-config grid
// serial, parallel and streamed from a recorded container.
func benchGrid(profile string, insts int, seed int64, workers int, jsonPath string) error {
	w, err := loadWorkload(profile, insts, seed)
	if err != nil {
		return err
	}
	jobs := sim.SweepJobs(w, cacti.Tech90,
		[]int{1 << 10, 2 << 10, 4 << 10, 8 << 10},
		[]core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP},
		false, 0)
	fmt.Printf("benchmarking %d-config grid over %s (%d insts)\n", len(jobs), w.Name, insts)

	// Each phase is sampled separately so its BENCH record states what the
	// measured throughput cost in CPU and memory on this host.
	sampler := telemetry.StartSampler(0)
	start := time.Now()
	serialRes := sim.Runner{Workers: 1}.Run(jobs)
	serialWall := time.Since(start)
	serialUsage := sampler.Stop()
	serialSum := sim.Summarise(serialRes, serialWall)
	fmt.Printf("serial:   %8v  %12.0f cycles/sec  %6.2f sims/sec\n",
		serialWall.Round(time.Millisecond), serialSum.CyclesPerSec(), serialSum.SimsPerSec())

	runner := sim.Runner{Workers: workers}
	sampler = telemetry.StartSampler(0)
	start = time.Now()
	parRes := runner.Run(jobs)
	parWall := time.Since(start)
	parUsage := sampler.Stop()
	parSum := sim.Summarise(parRes, parWall)
	speedup := serialWall.Seconds() / parWall.Seconds()
	fmt.Printf("parallel: %8v  %12.0f cycles/sec  %6.2f sims/sec  (%d workers, %.2fx vs serial)\n",
		parWall.Round(time.Millisecond), parSum.CyclesPerSec(), parSum.SimsPerSec(),
		runner.EffectiveWorkers(), speedup)
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("note: GOMAXPROCS=1 — parallel speedup needs a multi-core machine")
	}

	// The same grid streamed from a recorded container instead of the
	// in-memory trace: the perf trajectory of the trace-I/O path.
	sampler = telemetry.StartSampler(0)
	streamSum, err := benchStreamedGrid(w, seed, insts, jobs, runner)
	streamUsage := sampler.Stop()
	if err != nil {
		return err
	}
	fmt.Printf("streamed: %8v  %12.0f cycles/sec  %6.2f sims/sec  (%d workers, windowed trace file)\n",
		streamSum.Wall.Round(time.Millisecond), streamSum.CyclesPerSec(), streamSum.SimsPerSec(),
		runner.EffectiveWorkers())

	for i := range jobs {
		if serialRes[i].Err != nil || parRes[i].Err != nil {
			return fmt.Errorf("job %s failed: %v %v", jobs[i].Name, serialRes[i].Err, parRes[i].Err)
		}
	}

	if jsonPath != "" {
		serialRec := sim.RecordFromSummary("grid-serial", 1, serialSum)
		serialRec.Host = &serialUsage
		parRec := sim.RecordFromSummary("grid-parallel", runner.EffectiveWorkers(), parSum)
		parRec.SpeedupVsSerial = speedup
		parRec.Host = &parUsage
		streamRec := sim.RecordFromSummary("grid-streamed", runner.EffectiveWorkers(), streamSum)
		streamRec.Host = &streamUsage
		if err := sim.WriteBenchJSON(jsonPath, []sim.BenchRecord{serialRec, parRec, streamRec}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// benchStreamedGrid re-runs the bench grid with every job streaming its
// trace from a freshly recorded container through the default window.
func benchStreamedGrid(w *workload.Workload, seed int64, insts int, jobs []sim.Job, runner sim.Runner) (sim.Summary, error) {
	dir, err := os.MkdirTemp("", "clgp-bench-stream")
	if err != nil {
		return sim.Summary{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, w.Name+".clgt")
	if _, err := sim.RecordTrace(w.Profile, insts, seed, path, 0); err != nil {
		return sim.Summary{}, err
	}
	streamed := make([]sim.Job, len(jobs))
	for i, j := range jobs {
		j.TraceFile = path
		streamed[i] = j
	}
	start := time.Now()
	res := runner.Run(streamed)
	wall := time.Since(start)
	for i := range streamed {
		if res[i].Err != nil {
			return sim.Summary{}, fmt.Errorf("streamed job %s failed: %v", streamed[i].Name, res[i].Err)
		}
	}
	return sim.Summarise(res, wall), nil
}
