package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/dispatch"
	"clgp/internal/figures"
	"clgp/internal/telemetry"
)

// cmdWorker executes one shard of a sweep and exits. It is normally
// spawned by `clgpsim figures` (or any dispatch.Orchestrator launcher),
// but can be run by hand — on this host or any other — since the shard
// protocol is just the manifest plus one atomically committed JSONL result
// object, reached through a sweep directory or an object-store URL.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	storeFlag := fs.String("store", "", "sweep store: checkpoint directory or http(s) object-store URL")
	shard := fs.Int("shard", -1, "shard id to execute")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while the shard runs (e.g. 127.0.0.1:0)")
	metricsAddrFile := fs.String("metrics-addr-file", "", "write the bound -metrics-addr listen address to this file")
	spanParent := fs.String("span-parent", "", "parent span id for this worker's phase spans (threaded by the orchestrator)")
	runtimeTrace := runtimeTraceFlag(fs)
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lg, err := logSetup()
	if err != nil {
		return err
	}
	if *storeFlag == "" || *shard < 0 {
		return fmt.Errorf("worker needs -store and -shard")
	}
	stopTrace, err := startRuntimeTrace(*runtimeTrace)
	if err != nil {
		return err
	}
	defer func() {
		if terr := stopTrace(); terr != nil {
			fmt.Fprintf(os.Stderr, "clgpsim: runtime trace: %v\n", terr)
		}
	}()
	if *metricsAddr != "" {
		bound, stopMetrics, err := telemetry.StartMetricsServer(*metricsAddr, *metricsAddrFile, telemetry.Default)
		if err != nil {
			return err
		}
		defer stopMetrics()
		lg.Info("worker metrics server up", "addr", bound)
	}
	st, err := dispatch.OpenStore(*storeFlag)
	if err != nil {
		return err
	}
	m, err := st.LoadManifest()
	if err != nil {
		return err
	}
	host, _ := os.Hostname()
	start := time.Now()
	recs, err := dispatch.RunShard(st, m, *shard, *workers, host, *spanParent, lg)
	if err != nil {
		return err
	}
	failed := 0
	for _, rec := range recs {
		if rec.Err != "" {
			failed++
		}
	}
	lg.Info("shard complete", "shard", m.Shards[*shard].Name, "jobs", len(recs),
		"failed", failed, "host", host, "wall", time.Since(start).Round(time.Millisecond))
	fmt.Printf("worker: %s: %d jobs (%d failed) in %v\n",
		m.Shards[*shard].Name, len(recs), failed, time.Since(start).Round(time.Millisecond))
	return nil
}

// cmdFigures runs (or resumes) the paper's full evaluation grid through the
// dispatch orchestrator and emits the Figure 1/6/7/8 series sets as JSON
// and CSV files.
func cmdFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	insts := fs.Int("insts", 200_000, "trace length in instructions per workload")
	seed := fs.Int64("seed", 1, "workload generation seed (of the first replicate)")
	seeds := fs.Int("seeds", 1, "replicate seeds per grid point (replicate r runs seed+r); >1 emits mean±CI series")
	techsFlag := fs.String("techs", "90", "comma-separated technology nodes (e.g. 90,45)")
	profilesFlag := fs.String("profiles", "", "comma-separated profiles (empty = all 12)")
	dir := fs.String("dir", "clgp-figures", "sweep checkpoint directory")
	out := fs.String("out", "", "figure output directory (empty = the sweep directory)")
	shards := fs.Int("shards", 0, "shard count (0 = one per workload)")
	workers := fs.Int("workers", 0, "sim worker pool size per shard (0 = GOMAXPROCS)")
	parallel := fs.Int("parallel", 0, "concurrent worker processes per host: -exec children on this machine (0 = GOMAXPROCS), or workers per -ssh host (0 = 1; >1 needs -workers)")
	execMode := fs.Bool("exec", false, "run shards as child worker processes instead of in-process")
	storeFlag := fs.String("store", "", "checkpoint through this store instead of -dir: an http(s) object-store URL (clgpsim store serve) or a shared directory")
	sshHosts := fs.String("ssh", "", "comma-separated ssh hosts to run workers on (needs a -store the hosts can reach)")
	sshRemote := fs.String("ssh-remote", "clgpsim", "clgpsim binary on the ssh hosts")
	retries := fs.Int("retries", 1, "extra leases per shard after a worker failure (0 = no retry)")
	resume := fs.Bool("resume", false, "resume an interrupted sweep, skipping completed shards")
	figL1 := fs.Int("fig-l1", 2<<10, "L1 size used by the per-benchmark figures (6/7/8)")
	traceFile := fs.String("tracefile", "", "stream every job's trace from this recorded container (single-profile grids only)")
	window := fs.Int("window", 0, "resident-record cap when streaming (0 = default)")
	warmupFlag := fs.Int("warmup", 0, "warm-state snapshot boundary in committed instructions: grid points sharing a warm configuration restore one checkpoint through the sweep store instead of re-simulating warm-up (0 = off)")
	progress := fs.Bool("progress", false, "report per-shard sweep progress (state, jobs, ETA) from the store and exit without running anything")
	stallAfter := fs.Duration("stall-after", 0, "flag a shard stalled when its latest progress mark is older than this (0 = 6s, negative disables)")
	traceOut := fs.String("trace-out", "", "export the sweep's span trace as Chrome-trace-event JSON to this path (open in Perfetto)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while the sweep runs (e.g. 127.0.0.1:0)")
	metricsAddrFile := fs.String("metrics-addr-file", "", "write the bound -metrics-addr listen address to this file")
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lg, err := logSetup()
	if err != nil {
		return err
	}
	loc := *storeFlag
	if loc == "" {
		loc = *dir
	}
	st, err := dispatch.OpenStore(loc)
	if err != nil {
		return err
	}
	if *progress {
		// -progress -trace-out exports whatever spans the store holds so
		// far, without running anything — a live look at a sweep underway.
		if *traceOut != "" {
			if err := exportSweepTrace(st, *traceOut); err != nil {
				return err
			}
		}
		return reportProgress(st, *stallAfter)
	}
	if *metricsAddr != "" {
		bound, stopMetrics, err := telemetry.StartMetricsServer(*metricsAddr, *metricsAddrFile, telemetry.Default)
		if err != nil {
			return err
		}
		defer stopMetrics()
		lg.Info("figures metrics server up", "addr", bound)
	}

	// Reject an off-grid figure size before the sweep runs, not after.
	figOnGrid := false
	for _, size := range cacti.L1Sizes() {
		if size == *figL1 {
			figOnGrid = true
			break
		}
	}
	if !figOnGrid {
		return fmt.Errorf("-fig-l1 %d is not in the swept L1 sizes %v", *figL1, cacti.L1Sizes())
	}

	var techs []cacti.Tech
	for _, s := range strings.Split(*techsFlag, ",") {
		t, err := cacti.ParseTech(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		techs = append(techs, t)
	}
	var profiles []string
	if *profilesFlag != "" {
		for _, p := range strings.Split(*profilesFlag, ",") {
			profiles = append(profiles, strings.TrimSpace(p))
		}
	}

	specs, err := dispatch.GridSpecs(dispatch.GridConfig{
		Profiles: profiles, Insts: *insts, Seed: *seed, Seeds: *seeds,
		Techs:        techs,
		L0Variants:   true,
		IncludeIdeal: true,
		TraceFile:    *traceFile,
		Window:       *window,
		Warmup:       *warmupFlag,
	})
	if err != nil {
		return err
	}

	o := &dispatch.Orchestrator{
		Store: st, Workers: *workers, Logger: lg,
		Retry:      dispatch.RetryPolicy{Attempts: *retries + 1},
		StallAfter: *stallAfter,
	}
	if *execMode || *sshHosts != "" {
		pl := &dispatch.ProcessLauncher{Store: st, PerHost: *parallel, Workers: *workers, Remote: *sshRemote}
		if *sshHosts != "" {
			if *storeFlag == "" {
				return fmt.Errorf("-ssh workers need -store (an object-store URL or a directory every host mounts)")
			}
			for _, h := range strings.Split(*sshHosts, ",") {
				if h = strings.TrimSpace(h); h != "" {
					pl.Hosts = append(pl.Hosts, h)
				}
			}
			if len(pl.Hosts) == 0 {
				return fmt.Errorf("-ssh %q names no hosts", *sshHosts)
			}
		}
		o.Launcher = pl
	}
	outcome, err := o.Run(specs, *shards, *resume)
	if err != nil {
		return err
	}
	sum := outcome.Summary()
	// Throughput is only meaningful over the shards this invocation ran;
	// checkpointed results cost no wall-clock time here.
	ranSum := outcome.RanSummary()
	rate := ""
	if ranSum.Sims > 0 {
		rate = fmt.Sprintf(": %.0f cycles/sec", ranSum.CyclesPerSec())
	}
	retried := ""
	if outcome.Retries > 0 {
		retried = fmt.Sprintf(", %d retries", outcome.Retries)
		if len(outcome.ExcludedHosts) > 0 {
			retried += fmt.Sprintf(" (excluded hosts: %s)", strings.Join(outcome.ExcludedHosts, ","))
		}
	}
	fmt.Printf("%d sims (%d/%d shards from checkpoint, %d failed%s) in %v%s\n",
		sum.Sims, len(outcome.Skipped), len(outcome.Manifest.Shards), sum.Failed, retried,
		outcome.Wall.Round(time.Millisecond), rate)
	for _, rec := range outcome.Records {
		if rec.Err != "" {
			return fmt.Errorf("job %s failed: %s", rec.Job, rec.Err)
		}
	}

	outDir := *out
	if outDir == "" {
		outDir = *dir
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	figs, err := figures.Build(outcome.Records, techs, *figL1)
	if err != nil {
		return err
	}
	files, err := figures.Write(outDir, figs)
	if err != nil {
		return err
	}
	for _, f := range files {
		fmt.Printf("wrote %s.{json,csv}\n", f)
	}

	if *traceOut != "" {
		if err := exportSweepTrace(st, *traceOut); err != nil {
			return err
		}
	}
	return nil
}

// exportSweepTrace stitches a sweep's persisted spans (the orchestrator's
// plus every worker's) into one Chrome-trace-event JSON file.
func exportSweepTrace(st dispatch.Store, path string) error {
	m, err := st.LoadManifest()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dispatch.ExportChromeTrace(f, st, m); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (open in Perfetto or chrome://tracing)\n", path)
	return nil
}

// reportProgress renders the read-side sweep progress report: one row per
// shard with state, job counts, last-mark age and ETA, derived from
// nothing but the store (manifest + shard results + shard span logs).
// It works from any machine that can reach the store, while the sweep runs.
func reportProgress(st dispatch.Store, stallAfter time.Duration) error {
	m, err := st.LoadManifest()
	if err != nil {
		return err
	}
	statuses, err := dispatch.SweepProgress(st, m, time.Now(), stallAfter)
	if err != nil {
		return err
	}
	counts := make(map[string]int)
	jobsDone, jobsTotal := 0, 0
	fmt.Printf("%-4s %-28s %-8s %11s %-12s %10s %10s\n",
		"id", "shard", "state", "jobs", "host", "age", "eta")
	for _, s := range statuses {
		counts[s.State]++
		jobsDone += s.JobsDone
		jobsTotal += s.JobsTotal
		age, eta := "-", "-"
		if s.State == "running" || s.State == "stalled" {
			age = s.Age.Round(time.Millisecond).String()
			if s.ETA > 0 {
				eta = s.ETA.Round(time.Second).String()
			}
		}
		host := s.Host
		if host == "" {
			host = "-"
		}
		fmt.Printf("%-4d %-28s %-8s %5d/%5d %-12s %10s %10s\n",
			s.ID, s.Name, s.State, s.JobsDone, s.JobsTotal, host, age, eta)
	}
	fmt.Printf("progress: %d/%d jobs done; shards: %d done, %d running, %d stalled, %d pending\n",
		jobsDone, jobsTotal, counts["done"], counts["running"], counts["stalled"], counts["pending"])
	return nil
}
