package main

import (
	"fmt"
	"io/fs"
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

// sweepWorkers is the sim pool size of the in-process launcher: the host's
// two CPUs.
const sweepWorkers = 2

// sweepSets is the number of input sets of the sweep workload.
const sweepSets = 3

// gridConfig is the figures grid: the scale's profiles × 90nm × every engine
// with and without an L0 × the ideal baseline × the L1 sizes — at full
// scale 4 × 8 × 9 = 288 points.
func (sc scale) gridConfig(seed int64) dispatch.GridConfig {
	return dispatch.GridConfig{
		Profiles: sc.profiles, Insts: sc.gridInsts, Seed: seed, Sizes: sc.sizes,
		Techs: []cacti.Tech{cacti.Tech90}, L0Variants: true, IncludeIdeal: true,
		Warmup: sc.gridWarmup,
	}
}

// sweepWorkload is the figures workflow, one pass per input set through the
// in-process launcher: a cold sweep of the grid into a fresh store, in which
// every point simulates from cycle 0 and writes its warm-state snapshot, then
// the same sweep into a second fresh store that reads the first one's
// snapshots, so every point restores and simulates only the second half.
type sweepWorkload struct {
	specs [sweepSets][]dispatch.JobSpec
	last  []sweepRun // the last pass's sweeps, for afterPass
}

// sweepRun is one Orchestrator.Run of a pass.
type sweepRun struct {
	out  *dispatch.Outcome
	dir  string
	span string // the benchmark's span around the run
}

func (s *sweepWorkload) digestKey() string { return "sweep" }
func (s *sweepWorkload) sets() int         { return sweepSets }
func (s *sweepWorkload) cpus() int         { return sweepWorkers }

func (s *sweepWorkload) prepare(b *bench, j int) error {
	seed := setSeed(b.seed, j)
	var err error
	if s.specs[j], err = dispatch.GridSpecs(b.scale.gridConfig(seed)); err != nil {
		return err
	}
	// Generate each profile's workload and build its first engine: the
	// inputs the shards regenerate, checked before any sweep starts.
	for _, name := range b.scale.profiles {
		p, err := workload.ProfileByName(name)
		if err != nil {
			return err
		}
		var w *workload.Workload
		if err := b.timeCall("workload.generate_ms", time.Millisecond, "workload.Generate", "", func() error {
			w, err = workload.Generate(p, b.scale.gridInsts, seed)
			return err
		}); err != nil {
			return err
		}
		if err := b.timeCall("core.new_engine_us", time.Microsecond, "core.NewEngine", "", func() error {
			_, err := core.NewEngine(runConfig(), w.Dict, w.Trace)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// snapshotStore is a directory store whose warm-state snapshots live in
// another store.
type snapshotStore struct {
	*dispatch.DirStore
	snaps *dispatch.DirStore
}

func (s snapshotStore) FetchSnapshot(key string) ([]byte, error) { return s.snaps.FetchSnapshot(key) }
func (s snapshotStore) PushSnapshot(key string, data []byte) error {
	return s.snaps.PushSnapshot(key, data)
}

// runSweep runs one orchestrator sweep over specs into st, inside a span.
func runSweep(b *bench, specs []dispatch.JobSpec, st dispatch.Store, parent string) (sweepRun, error) {
	o := &dispatch.Orchestrator{Store: st, Workers: sweepWorkers}
	sp := b.begin("dispatch.Orchestrator.Run", parent)
	out, err := o.Run(specs, 0, false)
	sp.End()
	return sweepRun{out: out, dir: st.Location(), span: sp.ID()}, err
}

// pass sweeps the grid cold, then restored. Its steps are the grid points,
// each timed by its two jobs' RunRecord.WallSeconds.
func (s *sweepWorkload) pass(b *bench, j int, parent string) (passOut, error) {
	cold := dispatch.NewDirStore(filepath.Join(b.scratch, "cold"))
	warm := snapshotStore{DirStore: dispatch.NewDirStore(filepath.Join(b.scratch, "warm")), snaps: cold}
	s.last = s.last[:0]
	var out passOut
	pointMS := map[string]float64{}
	for _, st := range []dispatch.Store{cold, warm} {
		run, err := runSweep(b, s.specs[j], st, parent)
		if err != nil {
			return passOut{}, err
		}
		s.last = append(s.last, run)
		var jobs jobResults
		for _, rec := range run.out.Records {
			jobs.names = append(jobs.names, rec.Job)
			var r *stats.Results
			if rec.Err == "" {
				r = rec.Stats
			}
			jobs.results = append(jobs.results, r)
			pointMS[rec.Job] += rec.WallSeconds * 1000
		}
		out.runs = append(out.runs, jobs)
	}
	for _, name := range out.runs[0].names {
		out.steps = append(out.steps, pointMS[name])
	}
	return out, nil
}

func (s *sweepWorkload) afterPass(b *bench, traced bool) error {
	if traced {
		if err := collectSweep(b, s.last); err != nil {
			return err
		}
	}
	for _, run := range s.last {
		if err := os.RemoveAll(run.dir); err != nil {
			return err
		}
	}
	return nil
}

// reference has nothing to run: every pass's restored sweep was checked job
// by job against its cold sweep, and each set pass to pass.
func (s *sweepWorkload) reference(b *bench) error {
	b.checks = append(b.checks, "every restored sweep checked job by job against its cold sweep", repeatNote(b))
	return nil
}

func (s *sweepWorkload) probe(b *bench) error {
	seed := setSeed(b.seed, 0)
	profiles := make([]workload.Profile, len(b.scale.profiles))
	for i, name := range b.scale.profiles {
		p, err := workload.ProfileByName(name)
		if err != nil {
			return err
		}
		profiles[i] = p
	}
	path, err := recordProbe(b, profiles[0], seed)
	if err != nil {
		return err
	}
	if err := decodeProbe(b, path); err != nil {
		return err
	}
	return snapProbe(b, profiles, seed)
}

func (s *sweepWorkload) close() {}

// collectSweep gathers a traced pass's dispatch metrics from outside the
// dispatch layer, summed over the pass's sweeps: a separate MergeStore call
// per sweep, the spans each sweep persisted (stitched under the benchmark's
// Run span), and the stores' sizes.
func collectSweep(b *bench, runs []sweepRun) error {
	var sweepUS, shardUS, jobUS, mergeMS float64
	var snapBytes, otherBytes int64
	phases := map[string]float64{}
	for _, run := range runs {
		st := dispatch.NewDirStore(run.dir)
		start := time.Now()
		if err := b.timeCall("", 0, "dispatch.MergeStore", "", func() error {
			_, err := dispatch.MergeStore(st, run.out.Manifest)
			return err
		}); err != nil {
			return err
		}
		mergeMS += float64(time.Since(start)) / float64(time.Millisecond)
		var spans []telemetry.Span
		if err := b.timeCall("", 0, "dispatch.CollectSweepSpans", "", func() error {
			var err error
			spans, err = dispatch.CollectSweepSpans(st, run.out.Manifest)
			return err
		}); err != nil {
			return err
		}
		prefix := fmt.Sprintf("%s/", run.span)
		for i := range spans {
			sp := &spans[i]
			sp.ID = prefix + sp.ID
			if sp.Parent == "" {
				sp.Parent = run.span
			} else {
				sp.Parent = prefix + sp.Parent
			}
			d := float64(sp.DurMicros)
			switch sp.Cat {
			case telemetry.SpanSweep:
				sweepUS += d
			case telemetry.SpanShard:
				shardUS += d
			case telemetry.SpanPhase:
				phases[sp.Name] += d
			}
		}
		b.stitched = append(b.stitched, spans...)
		for _, rec := range run.out.Records {
			jobUS += rec.WallSeconds * 1e6
		}
		snaps, other, err := storeBytes(run.dir)
		if err != nil {
			return err
		}
		snapBytes += snaps
		otherBytes += other
	}
	k := b.scaleNow()
	simUS := phases["simulate"]
	b.sample("dispatch.merge_ms", mergeMS*k)
	b.sample("dispatch.sweep_self_ms", (sweepUS-shardUS)/1000*k)
	b.sample("dispatch.fetch_trace_ms", phases["fetch-trace"]/1000*k)
	b.sample("dispatch.simulate_ms", simUS/1000*k)
	b.sample("dispatch.commit_ms", phases["commit"]/1000*k)
	if simUS > 0 {
		pool := sweepWorkers * simUS
		b.sample("sim.pool_idle_frac", (pool-jobUS)/pool)
	}
	b.sample("snap.store_mb", float64(snapBytes)/1e6)
	b.sample("dispatch.store_mb", float64(otherBytes)/1e6)
	return nil
}

// storeBytes sizes a directory store: snapshot artifacts, and everything
// else (manifest, shard results, heartbeats, spans).
func storeBytes(dir string) (snaps, other int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if strings.HasPrefix(path, filepath.Join(dir, dispatch.SnapshotsDir)+string(filepath.Separator)) {
			snaps += info.Size()
		} else {
			other += info.Size()
		}
		return nil
	})
	return snaps, other, err
}

// repeatNote reports how many input sets were observed more than once, and
// so checked pass to pass.
func repeatNote(b *bench) string {
	n := 0
	for _, st := range b.sets {
		if st.observations > 1 {
			n++
		}
	}
	return fmt.Sprintf("%d of %d input sets checked pass to pass", n, len(b.sets))
}
