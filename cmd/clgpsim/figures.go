package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/dispatch"
	"clgp/internal/stats"
	"clgp/internal/telemetry"
	"clgp/internal/workload"
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
	paperRef := fs.String("paper-ref", "", "diff emitted figures against this committed reference table (refs/paper_ref.json); writes a delta report and exits non-zero on out-of-band structural deltas")
	writeRef := fs.String("write-ref", "", "capture a reference table from the emitted figures to this path (regenerating refs/paper_ref.json after a documented retune)")
	refRelTol := fs.Float64("ref-rel-tol", 0.05, "relative tolerance per point when capturing with -write-ref")
	refAbsTol := fs.Float64("ref-abs-tol", 0.005, "absolute tolerance floor per point when capturing with -write-ref")
	techsFlag := fs.String("techs", "90", "comma-separated technology nodes (e.g. 90,45)")
	profilesFlag := fs.String("profiles", "", "comma-separated profiles (empty = all 12)")
	dir := fs.String("dir", "clgp-figures", "sweep checkpoint directory")
	out := fs.String("out", "", "figure output directory (empty = the sweep directory)")
	shards := fs.Int("shards", 0, "shard count (0 = one per workload)")
	workers := fs.Int("workers", 0, "sim worker pool size per shard (0 = GOMAXPROCS)")
	parallel := fs.Int("parallel", 0, "concurrent worker processes in -exec mode (0 = GOMAXPROCS), or shards per host with -ssh (0 = 1; >1 needs -workers)")
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

	mode := dispatch.ModeInProcess
	if *execMode {
		mode = dispatch.ModeChild
	}
	o := &dispatch.Orchestrator{
		Store: st, Workers: *workers, Parallel: *parallel, Mode: mode, Logger: lg,
		Retry:      dispatch.RetryPolicy{Attempts: *retries + 1},
		StallAfter: *stallAfter,
	}
	if *sshHosts != "" {
		if *storeFlag == "" {
			return fmt.Errorf("-ssh workers need -store (an object-store URL or a directory every host mounts)")
		}
		var hosts []string
		for _, h := range strings.Split(*sshHosts, ",") {
			if h = strings.TrimSpace(h); h != "" {
				hosts = append(hosts, h)
			}
		}
		if len(hosts) == 0 {
			return fmt.Errorf("-ssh %q names no hosts", *sshHosts)
		}
		perHost := *parallel
		if perHost <= 0 {
			perHost = 1
		}
		o.Launcher = &dispatch.SSHLauncher{
			Hosts:   hosts,
			PerHost: perHost,
			Remote:  *sshRemote,
			Store:   o.Store,
			Workers: *workers,
		}
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
	files, figures, err := emitFigures(outDir, outcome.Records, techs, *figL1)
	if err != nil {
		return err
	}
	for _, f := range files {
		fmt.Printf("wrote %s.{json,csv}\n", f)
	}

	if *writeRef != "" {
		generator := fmt.Sprintf("clgpsim figures -insts %d -seed %d -seeds %d -profiles %s -techs %s -fig-l1 %d -write-ref %s",
			*insts, *seed, *seeds, *profilesFlag, *techsFlag, *figL1, *writeRef)
		if err := writeRefTable(*writeRef, files, figures, *refRelTol, *refAbsTol, generator); err != nil {
			return err
		}
	}
	// The fidelity gate runs last so a gate failure still leaves every
	// figure and the delta report on disk for inspection.
	if *paperRef != "" {
		if err := diffPaperRef(*paperRef, outDir, figures); err != nil {
			return err
		}
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

// recKey indexes merged records by the grid dimensions the figures group on.
// Replicates of one grid point share a key; they differ only in Spec.Rep.
type recKey struct {
	profile, tech, engine string
	l0, ideal             bool
	size                  int
}

// repIndex holds merged records regrouped by grid point, each point's
// replicates in replicate order. reps is the grid's replicate count (1 on a
// single-seed grid).
type repIndex struct {
	byKey map[recKey][]*stats.Results
	reps  int
}

func indexRecords(recs []dispatch.RunRecord) *repIndex {
	ix := &repIndex{byKey: make(map[recKey][]*stats.Results, len(recs)), reps: 1}
	for _, rec := range recs {
		if rec.Spec.Rep+1 > ix.reps {
			ix.reps = rec.Spec.Rep + 1
		}
	}
	for _, rec := range recs {
		s := rec.Spec
		k := recKey{s.Profile, s.Tech, s.Engine, s.UseL0, s.Ideal, s.L1Size}
		rs := ix.byKey[k]
		if rs == nil {
			rs = make([]*stats.Results, ix.reps)
		}
		rs[s.Rep] = rec.Stats
		ix.byKey[k] = rs
	}
	return ix
}

// replicated reports whether the grid carries more than one replicate seed.
func (ix *repIndex) replicated() bool { return ix.reps > 1 }

// vals evaluates a derived metric over one grid point's replicates, in
// replicate order. It returns nil when the point (or any of its replicates)
// is absent — the same all-or-nothing gating single-seed emission applies,
// extended per replicate so a partial point never fakes a narrower CI.
func (ix *repIndex) vals(k recKey, metric func(*stats.Results) float64) []float64 {
	rs := ix.byKey[k]
	if rs == nil {
		return nil
	}
	out := make([]float64, len(rs))
	for i, r := range rs {
		if r == nil {
			return nil
		}
		out[i] = metric(r)
	}
	return out
}

// hmeanVals evaluates, per replicate, the harmonic mean of a metric across
// a set of grid points (one per profile — the paper's HMEAN bars). The mean
// is taken within each replicate and the spread across replicates, so the
// CI describes seed variance of the summary statistic itself. Nil unless
// every point has every replicate.
func (ix *repIndex) hmeanVals(keys []recKey, metric func(*stats.Results) float64) []float64 {
	per := make([][]float64, len(keys))
	for i, k := range keys {
		v := ix.vals(k, metric)
		if v == nil {
			return nil
		}
		per[i] = v
	}
	out := make([]float64, ix.reps)
	col := make([]float64, len(keys))
	for rep := 0; rep < ix.reps; rep++ {
		for i := range keys {
			col[i] = per[i][rep]
		}
		out[rep] = stats.HarmonicMean(col)
	}
	return out
}

// addPoint appends one figure point from its replicate values: a single-seed
// grid adds the plain value (keeping emission byte-compatible with the
// pre-replication format), a replicated one folds the values — in replicate
// order, for bit-reproducible aggregates — into mean plus N/stddev/CI95.
func addPoint(s *stats.Series, x float64, vals []float64, replicated bool) {
	if !replicated {
		s.Add(x, vals[0])
		return
	}
	var w stats.Welford
	for _, v := range vals {
		w.Add(v)
	}
	s.AddStat(x, w)
}

// techTag renders a node as a filename-friendly tag ("90nm").
func techTag(t cacti.Tech) string {
	e, err := cacti.RoadmapFor(t)
	if err != nil {
		return strings.ReplaceAll(t.String(), ".", "")
	}
	return fmt.Sprintf("%dnm", e.FeatureNM)
}

// engineVariants are the per-benchmark figure columns, in legend order.
var engineVariants = []struct {
	label  string
	engine core.EngineKind
	l0     bool
}{
	{"none", core.EngineNone, false},
	{"nextn", core.EngineNextN, false},
	{"nextn+l0", core.EngineNextN, true},
	{"fdp", core.EngineFDP, false},
	{"fdp+l0", core.EngineFDP, true},
	{"clgp", core.EngineCLGP, false},
	{"clgp+l0", core.EngineCLGP, true},
}

// emitFigures assembles the paper's figure series from the merged records
// and writes one JSON + CSV pair per figure and node. On a replicated grid
// every point is a replicate mean with N/stddev/CI95 columns; single-seed
// emission is byte-identical to the pre-replication format. It returns the
// file bases written plus the sets keyed by figure name, which is what the
// paper-reference differ consumes.
func emitFigures(outDir string, recs []dispatch.RunRecord, techs []cacti.Tech, figL1 int) ([]string, map[string]*stats.SeriesSet, error) {
	ix := indexRecords(recs)
	profiles := profilesIn(recs)
	sizes := sizesIn(recs)
	onGrid := false
	for _, size := range sizes {
		if size == figL1 {
			onGrid = true
			break
		}
	}
	if !onGrid {
		return nil, nil, fmt.Errorf("-fig-l1 %d is not in the swept L1 sizes %v; figures 6/7/8 would be empty", figL1, sizes)
	}
	ipc := func(r *stats.Results) float64 { return r.IPC() }
	var written []string
	figures := make(map[string]*stats.SeriesSet)
	write := func(name string, ss *stats.SeriesSet) error {
		base := filepath.Join(outDir, name)
		if err := ss.WriteFiles(base); err != nil {
			return err
		}
		written = append(written, base)
		figures[name] = ss
		return nil
	}

	for _, tech := range techs {
		techStr := tech.String()
		tag := techTag(tech)

		// Figure 1: the motivating latency/capacity trade-off — harmonic-mean
		// IPC of the no-prefetch baseline vs an ideal one-cycle I-cache,
		// over the L1 sweep. The HMEAN is taken within each replicate and
		// the spread across replicates.
		fig1 := &stats.SeriesSet{
			Title:  fmt.Sprintf("Figure 1 — IPC vs L1I size, baseline vs ideal (%s)", techStr),
			XLabel: "L1I", YLabel: "HMEAN IPC",
		}
		for _, size := range sizes {
			baseKeys := make([]recKey, len(profiles))
			idealKeys := make([]recKey, len(profiles))
			for i, prof := range profiles {
				baseKeys[i] = recKey{prof, techStr, "none", false, false, size}
				idealKeys[i] = recKey{prof, techStr, "none", false, true, size}
			}
			if vals := ix.hmeanVals(baseKeys, ipc); vals != nil {
				addPoint(fig1.Ensure("baseline"), float64(size), vals, ix.replicated())
			}
			if vals := ix.hmeanVals(idealKeys, ipc); vals != nil {
				addPoint(fig1.Ensure("ideal"), float64(size), vals, ix.replicated())
			}
		}
		if err := write("figure1_ipc_vs_l1_"+tag, fig1); err != nil {
			return nil, nil, err
		}

		// Figure 6: per-benchmark IPC of every engine variant at the
		// representative L1 size, with the HMEAN bar the paper appends.
		fig6 := &stats.SeriesSet{
			Title: fmt.Sprintf("Figure 6 — per-benchmark IPC @ L1=%s (%s)",
				stats.FormatBytes(float64(figL1)), techStr),
			XLabel: "benchmark", YLabel: "IPC",
			Labels: append(append([]string{}, profiles...), "HMEAN"),
		}
		for _, v := range engineVariants {
			keys := make([]recKey, len(profiles))
			complete := true
			for pi, prof := range profiles {
				k := recKey{prof, techStr, v.engine.String(), v.l0, false, figL1}
				keys[pi] = k
				vals := ix.vals(k, ipc)
				if vals == nil {
					complete = false
					continue
				}
				addPoint(fig6.Ensure(v.label), float64(pi), vals, ix.replicated())
			}
			if complete {
				if vals := ix.hmeanVals(keys, ipc); vals != nil {
					addPoint(fig6.Ensure(v.label), float64(len(profiles)), vals, ix.replicated())
				}
			}
		}
		if err := write("figure6_ipc_"+tag, fig6); err != nil {
			return nil, nil, err
		}

		// Figures 7 and 8: where fetches and prefetches are served from, for
		// the full CLGP configuration (prestage buffer + L0), per benchmark.
		// Fractions are computed per replicate and averaged, never derived
		// from summed counters.
		fig7 := &stats.SeriesSet{
			Title: fmt.Sprintf("Figure 7 — fetch sources, clgp+l0 @ L1=%s (%s)",
				stats.FormatBytes(float64(figL1)), techStr),
			XLabel: "benchmark", YLabel: "fraction of fetches",
			Labels: append([]string{}, profiles...),
		}
		fig8 := &stats.SeriesSet{
			Title: fmt.Sprintf("Figure 8 — prefetch sources, clgp+l0 @ L1=%s (%s)",
				stats.FormatBytes(float64(figL1)), techStr),
			XLabel: "benchmark", YLabel: "fraction of prefetches",
			Labels: append([]string{}, profiles...),
		}
		for pi, prof := range profiles {
			k := recKey{prof, techStr, "clgp", true, false, figL1}
			if ix.byKey[k] == nil {
				continue
			}
			for src := stats.Source(0); src < stats.NumSources; src++ {
				src := src
				fetch := ix.vals(k, func(r *stats.Results) float64 { return r.FetchSources.Fractions()[src] })
				pref := ix.vals(k, func(r *stats.Results) float64 { return r.PrefetchSources.Fractions()[src] })
				if fetch != nil {
					addPoint(fig7.Ensure(src.String()), float64(pi), fetch, ix.replicated())
				}
				if pref != nil {
					addPoint(fig8.Ensure(src.String()), float64(pi), pref, ix.replicated())
				}
			}
		}
		if err := write("figure7_fetch_sources_"+tag, fig7); err != nil {
			return nil, nil, err
		}
		if err := write("figure8_prefetch_sources_"+tag, fig8); err != nil {
			return nil, nil, err
		}

		// Cycle breakdown: where every cycle of every grid point at the
		// representative L1 size went — one series per (variant, leading
		// cause) pair, as fractions of that run's total cycles. This is the
		// causal companion to Figure 6: it says *why* a variant's IPC moved,
		// not just that it did.
		figCyc := &stats.SeriesSet{
			Title: fmt.Sprintf("Cycle breakdown — leading-cause shares per benchmark @ L1=%s (%s)",
				stats.FormatBytes(float64(figL1)), techStr),
			XLabel: "benchmark", YLabel: "fraction of cycles",
			Labels: append([]string{}, profiles...),
		}
		for _, v := range engineVariants {
			for pi, prof := range profiles {
				k := recKey{prof, techStr, v.engine.String(), v.l0, false, figL1}
				if ix.byKey[k] == nil {
					continue
				}
				for c := stats.CycleCause(0); c < stats.NumCycleCauses; c++ {
					c := c
					vals := ix.vals(k, func(r *stats.Results) float64 { return r.CycleAccounts.Fraction(c) })
					if vals != nil {
						addPoint(figCyc.Ensure(v.label+"/"+c.String()), float64(pi), vals, ix.replicated())
					}
				}
			}
		}
		if err := write("cycle_breakdown_"+tag, figCyc); err != nil {
			return nil, nil, err
		}
	}
	return written, figures, nil
}

// writeRefTable captures a paper-reference table from the emitted figures.
// Every emitted point becomes an expected value with the given tolerances
// and every series is structural; hand-editing the committed table afterwards
// (loosening a band, demoting a series to advisory) is expected and
// diff-reviewable.
func writeRefTable(path string, files []string, figures map[string]*stats.SeriesSet, relTol, absTol float64, generator string) error {
	// files carry outDir-joined bases; the table keys on bare figure names.
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = filepath.Base(f)
	}
	table, err := stats.RefTableFromFigures(names, figures, relTol, absTol, "conf_ipps_FalconRV05 harness capture", generator)
	if err != nil {
		return err
	}
	data, err := table.JSON()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d figures)\n", path, len(table.Figures))
	return nil
}

// diffPaperRef loads the committed reference table, diffs the emitted
// figures against it, writes the delta report next to the figures and
// returns the gate verdict — non-nil (a non-zero exit) when structural
// deltas fall outside their tolerance bands.
func diffPaperRef(refPath, outDir string, figures map[string]*stats.SeriesSet) error {
	table, err := stats.LoadRefTable(refPath)
	if err != nil {
		return err
	}
	report := stats.DiffRef(table, figures)
	base := filepath.Join(outDir, "paper_ref_delta")
	if err := report.WriteFiles(base); err != nil {
		return err
	}
	fmt.Printf("wrote %s.{json,csv}\n", base)
	fmt.Println(report.Summary())
	return report.Gate()
}

// profilesIn returns the distinct profiles of the records, in paper order.
func profilesIn(recs []dispatch.RunRecord) []string {
	present := make(map[string]bool)
	for _, rec := range recs {
		present[rec.Spec.Profile] = true
	}
	var out []string
	for _, name := range workload.ProfileNames() {
		if present[name] {
			out = append(out, name)
		}
	}
	return out
}

// sizesIn returns the distinct L1 sizes of the records, ascending.
func sizesIn(recs []dispatch.RunRecord) []int {
	present := make(map[int]bool)
	for _, rec := range recs {
		present[rec.Spec.L1Size] = true
	}
	var out []int
	for _, size := range cacti.L1Sizes() {
		if present[size] {
			out = append(out, size)
		}
	}
	return out
}
