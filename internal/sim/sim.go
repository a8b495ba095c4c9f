// Package sim is the batch-execution layer of the simulator: it fans a set
// of (configuration × workload) simulation jobs out over a worker pool sized
// to the machine, aggregates per-run statistics, and measures the harness's
// own throughput (simulated cycles per second, simulations per second) the
// way batch benchmarking harnesses record their driver throughput.
//
// Every job is independent — an Engine owns all its mutable state and reads
// only the shared program image and trace, which are immutable once
// generated — so the sweep parallelises embarrassingly and the wall-clock
// win over serial execution tracks the worker count.
package sim

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/isa"
	"clgp/internal/stats"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// Job is one simulation to execute: a processor configuration bound to a
// workload. Workloads may be shared between jobs; the engine treats the
// program image and trace as read-only.
type Job struct {
	// Config is the processor configuration; its Name labels the job in
	// results.
	Config core.Config
	// Workload provides the program image and the committed trace.
	Workload *workload.Workload
	// Warmup is the warm-up boundary in committed instructions. With a
	// Snapshots store attached, the run restores the shared warm-state
	// snapshot when one exists, or simulates through warm-up once and
	// publishes it for the rest of the grid. 0 disables snapshotting.
	Warmup int
	// Snapshots is the snapshot store used with Warmup (nil disables).
	Snapshots SnapshotStore
}

// Result is the outcome of one job.
type Result struct {
	// Name is the job label.
	Name string
	// Stats are the simulation results (nil when Err is set).
	Stats *stats.Results
	// Wall is the wall-clock time the simulation took.
	Wall time.Duration
	// Err reports a configuration or simulation failure.
	Err error
}

// CyclesPerSec returns the simulation throughput of the run.
func (r Result) CyclesPerSec() float64 {
	if r.Stats == nil || r.Wall <= 0 {
		return 0
	}
	return float64(r.Stats.Cycles) / r.Wall.Seconds()
}

// Runner executes batches of jobs.
type Runner struct {
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// OnResult, when set, is called once per completed job with its index
	// and result — the progress hook shard span logs hang off. It is invoked
	// from pool goroutines concurrently, so it must be safe for concurrent
	// use; a slow hook slows the pool.
	OnResult func(i int, r Result)
}

// notify invokes the OnResult hook if set.
func (rn Runner) notify(i int, r Result) {
	if rn.OnResult != nil {
		rn.OnResult(i, r)
	}
}

// EffectiveWorkers resolves the pool size actually used by Run.
func (rn Runner) EffectiveWorkers() int {
	if rn.Workers > 0 {
		return rn.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes all jobs and returns their results in job order. Jobs are
// distributed over the worker pool; each worker runs simulations back to
// back so the pool stays saturated regardless of per-job runtime variance.
func (rn Runner) Run(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	workers := rn.EffectiveWorkers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			results[i] = runOne(jobs[i])
			rn.notify(i, results[i])
		}
		return results
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(jobs[i])
				rn.notify(i, results[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runOne executes a single job.
func runOne(j Job) Result {
	name := j.Config.Name
	start := time.Now()
	if j.Workload == nil {
		return Result{Name: name, Err: fmt.Errorf("sim %s: no workload", name)}
	}
	src := j.Workload.Trace
	if src == nil {
		return Result{Name: name, Err: fmt.Errorf("sim %s: workload %s has no trace", name, j.Workload.Name)}
	}
	eng, err := core.NewEngine(j.Config, j.Workload.Dict, src)
	if err != nil {
		return Result{Name: name, Err: err}
	}
	if j.Warmup > 0 && j.Snapshots != nil {
		eng, err = j.WarmStart(eng, src)
		if err != nil {
			return Result{Name: name, Err: err}
		}
	}
	st, err := eng.Run()
	// The results are built: recycle the engine's tables for the worker's
	// next job.
	eng.Release()
	if err != nil {
		return Result{Name: name, Err: err}
	}
	return Result{Name: st.Name, Stats: st, Wall: time.Since(start)}
}

// RecordTrace walks (p, insts, seed) and streams every record straight into
// a new container at path, recorded the one way streaming consumers expect
// — workload name, generation seed and fingerprint in the header — in
// constant memory. A partial file is removed on error. It returns the
// program image the trace was captured against. chunkRecords 0 selects the
// format default.
func RecordTrace(p workload.Profile, insts int, seed int64, path string, chunkRecords int) (*isa.Dictionary, error) {
	// The image build is cheap and consumes the head of the same seeded RNG
	// stream the walk continues on, so fingerprinting it first and
	// regenerating it inside GenerateTo yields the identical image.
	dict, err := workload.BuildImage(p, seed)
	if err != nil {
		return nil, err
	}
	w, err := tracefile.Create(path, tracefile.Options{
		Workload: p.Name, Fingerprint: workload.Fingerprint(p, dict), Seed: seed,
		ChunkRecords: chunkRecords,
	})
	if err != nil {
		return nil, err
	}
	if _, err := workload.GenerateTo(p, insts, seed, w); err != nil {
		w.Close()
		os.Remove(path)
		return nil, err
	}
	if err := w.Close(); err != nil {
		os.Remove(path)
		return nil, err
	}
	return dict, nil
}

// OpenStreamImage opens a trace container and rebuilds the program image it
// was recorded against from the (workload, seed) stored in the header,
// validating the stream. The returned workload carries only the image — its
// trace stays on disk, to be windowed per engine by the caller, who also
// owns closing the reader.
func OpenStreamImage(path string) (*workload.Workload, *tracefile.Reader, error) {
	rd, err := tracefile.Open(path)
	if err != nil {
		return nil, nil, err
	}
	p, err := workload.ProfileByName(rd.Workload())
	if err != nil {
		rd.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	dict, err := workload.BuildImage(p, rd.Seed())
	if err != nil {
		rd.Close()
		return nil, nil, err
	}
	// The fingerprint covers the program image and the walk parameters, so
	// a container recorded before a profile retune is rejected instead of
	// silently disagreeing with regenerating the workload.
	if fp := workload.Fingerprint(p, dict); rd.Fingerprint() != 0 && rd.Fingerprint() != fp {
		rd.Close()
		return nil, nil, fmt.Errorf("%s: recorded against a different program image or walk parameters (fingerprint %#x, regenerated %#x)",
			path, rd.Fingerprint(), fp)
	}
	return &workload.Workload{Name: p.Name, Profile: p, Dict: dict}, rd, nil
}

// JobName builds the canonical job label shared by the sweep and dispatch
// layers: "workload/engine[+l0]/tech/L1=size", with "ideal" standing in for
// the engine of an ideal-I-cache baseline. Within one grid the label is
// unique per (workload, engine, L0, ideal, tech, L1 size) point, which is
// what shard merging keys on.
func JobName(workloadName string, eng core.EngineKind, tech cacti.Tech, l1Size int, useL0, ideal bool) string {
	engLabel := eng.String()
	if ideal {
		if eng == core.EngineNone {
			engLabel = "ideal"
		} else {
			engLabel += "+ideal"
		}
	}
	if useL0 {
		engLabel += "+l0"
	}
	return fmt.Sprintf("%s/%s/%s/L1=%s", workloadName, engLabel, tech, stats.FormatBytes(float64(l1Size)))
}

// ReplicateName suffixes a job label with its replicate index. Replicate 0
// keeps the bare label, so single-seed grids — and the first replicate of a
// multi-seed one — name jobs exactly as before replication existed; higher
// replicates append "#r<N>", keeping names unique within a replicated grid.
func ReplicateName(base string, rep int) string {
	if rep <= 0 {
		return base
	}
	return fmt.Sprintf("%s#r%d", base, rep)
}

// Summary aggregates a batch of results.
type Summary struct {
	// Sims is the number of successful simulations.
	Sims int
	// Failed is the number of failed simulations.
	Failed int
	// TotalCycles and TotalInsts sum over successful runs.
	TotalCycles uint64
	TotalInsts  uint64
	// Wall is the batch wall-clock time (measured by the caller around Run).
	Wall time.Duration
}

// Summarise folds results into a Summary with the given wall-clock time.
func Summarise(results []Result, wall time.Duration) Summary {
	s := Summary{Wall: wall}
	for _, r := range results {
		if r.Err != nil || r.Stats == nil {
			s.Failed++
			continue
		}
		s.Sims++
		s.TotalCycles += r.Stats.Cycles
		s.TotalInsts += r.Stats.Committed
	}
	return s
}

// CyclesPerSec returns aggregate simulated cycles per wall-clock second.
func (s Summary) CyclesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.TotalCycles) / s.Wall.Seconds()
}

// SimsPerSec returns simulations completed per wall-clock second.
func (s Summary) SimsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Sims) / s.Wall.Seconds()
}
