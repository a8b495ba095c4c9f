package dispatch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"clgp/internal/sim"
	"clgp/internal/stats"
	"clgp/internal/workload"
)

// RunRecord is one job result in the on-disk shard format: one JSON object
// per line of the shard's JSONL file. It carries the spec alongside the
// stats so merged results can be regrouped (by profile, engine, size, ...)
// without re-reading the manifest.
type RunRecord struct {
	// Job is the job label (JobSpec.Name of Spec).
	Job string `json:"job"`
	// Spec is the job that was run.
	Spec JobSpec `json:"spec"`
	// WallSeconds is the wall-clock time of the simulation.
	WallSeconds float64 `json:"wall_seconds"`
	// Err is the failure message; empty on success.
	Err string `json:"error,omitempty"`
	// Stats are the simulation results (nil when Err is set).
	Stats *stats.Results `json:"stats,omitempty"`
}

// Result converts the record back into the in-memory sim result type.
func (r RunRecord) Result() sim.Result {
	res := sim.Result{
		Name:  r.Job,
		Stats: r.Stats,
		Wall:  time.Duration(r.WallSeconds * float64(time.Second)),
	}
	if r.Err != "" {
		res.Err = errors.New(r.Err)
	}
	return res
}

// recordFromResult converts a sim result into its serialisable form.
func recordFromResult(spec JobSpec, res sim.Result) RunRecord {
	rec := RunRecord{
		Job:         res.Name,
		Spec:        spec,
		WallSeconds: res.Wall.Seconds(),
		Stats:       res.Stats,
	}
	if res.Err != nil {
		rec.Err = res.Err.Error()
		rec.Stats = nil
	}
	return rec
}

// workloadCache generates each distinct workload once per shard run, keyed
// by JobSpec.WorkloadKey.
type workloadCache map[string]*workload.Workload

func (wc workloadCache) get(spec JobSpec) (*workload.Workload, error) {
	key := spec.WorkloadKey()
	if w, ok := wc[key]; ok {
		return w, nil
	}
	p, err := workload.ProfileByName(spec.Profile)
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(p, spec.Insts, spec.Seed)
	if err != nil {
		return nil, err
	}
	wc[key] = w
	return w, nil
}

// RunShard executes shard id of m as one lease on host and commits its
// results to st. It is the single shard-execution path: in-process
// launchers and `clgpsim worker` both run shards through it. Individual job
// failures are reported inside the returned records (one per job, in shard
// order); only infrastructure failures (unknown shard, workload generation,
// the commit) return an error.
//
// While it runs, the lease keeps its span log (spans/<shard>.jsonl) current
// in st: its fetch-trace, simulate and commit phase spans, parented under
// spanParent, with the open one marked with progress (see startShardLog).
// logger nil is silent.
func RunShard(st Store, m *Manifest, id, workers int, host, spanParent string, logger *slog.Logger) ([]RunRecord, error) {
	if id < 0 || id >= len(m.Shards) {
		return nil, fmt.Errorf("dispatch: shard %d out of range (manifest has %d)", id, len(m.Shards))
	}
	sp := m.Shards[id]
	log := startShardLog(st, sp, host, spanParent, logger)
	defer log.close()
	cache := make(workloadCache)
	jobs := make([]sim.Job, len(sp.Specs))
	for i, spec := range sp.Specs {
		w, err := cache.get(spec)
		if err != nil {
			return nil, fmt.Errorf("dispatch: shard %s: %w", sp.Name, err)
		}
		jobs[i], err = spec.SimJob(w)
		if err != nil {
			return nil, fmt.Errorf("dispatch: shard %s: %w", sp.Name, err)
		}
		if spec.Warmup > 0 {
			// Warm-state snapshots flow through the sweep store, so workers on
			// every host share one checkpoint per (fingerprint, warm key,
			// boundary).
			jobs[i].Snapshots = st
		}
	}
	log.phase("simulate")
	rn := sim.Runner{Workers: workers, OnResult: func(i int, r sim.Result) {
		mJobsDone.Inc()
		if r.Stats != nil {
			countSimCycles(r.Stats.CycleAccounts)
		}
		log.jobDone()
	}}
	results := rn.Run(jobs)
	recs := make([]RunRecord, len(results))
	for i, res := range results {
		recs[i] = recordFromResult(sp.Specs[i], res)
	}
	log.phase("commit")
	if err := st.WriteShardResults(sp, recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// encodeShardResults renders a shard's records in the on-store JSONL form
// (one JSON object per line, in shard order). Both backends commit exactly
// these bytes.
func encodeShardResults(sp ShardPlan, recs []RunRecord) ([]byte, error) {
	if len(recs) != len(sp.Specs) {
		return nil, fmt.Errorf("dispatch: shard %s: %d records for %d jobs", sp.Name, len(recs), len(sp.Specs))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return nil, fmt.Errorf("dispatch: encoding shard %s: %w", sp.Name, err)
		}
	}
	return buf.Bytes(), nil
}

// parseShardResults decodes shard JSONL bytes and validates them against
// the plan (count, job labels and full specs, in order).
func parseShardResults(sp ShardPlan, data []byte) ([]RunRecord, error) {
	recs := make([]RunRecord, 0, len(sp.Specs))
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("dispatch: shard %s record %d: %w", sp.Name, len(recs), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dispatch: reading shard %s: %w", sp.Name, err)
	}
	if len(recs) != len(sp.Specs) {
		return nil, fmt.Errorf("dispatch: shard %s holds %d records, plan has %d jobs", sp.Name, len(recs), len(sp.Specs))
	}
	for i, rec := range recs {
		if want := sp.Specs[i].Name(); rec.Job != want {
			return nil, fmt.Errorf("dispatch: shard %s record %d is %q, plan expects %q", sp.Name, i, rec.Job, want)
		}
		// The label omits insts/seed (constant within a grid), so compare
		// the full spec too: a shard file produced against a different
		// trace length or seed must not merge silently.
		if rec.Spec != sp.Specs[i] {
			return nil, fmt.Errorf("dispatch: shard %s record %d (%s) was run with spec %+v, plan has %+v",
				sp.Name, i, rec.Job, rec.Spec, sp.Specs[i])
		}
	}
	return recs, nil
}
