package dispatch

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"clgp/internal/sim"
	"clgp/internal/telemetry"
)

// Orchestrator drives a sharded, checkpointed sweep: it plans (or resumes)
// the manifest in a Store, leases pending shards to a Launcher's slots with
// per-shard retry, and merges the committed results. Store is required;
// Launcher is pluggable and defaults to running shards in this process.
type Orchestrator struct {
	// Store is the checkpoint backend (required).
	Store Store
	// Workers is the sim worker-pool size inside each shard when Launcher
	// is nil (<= 0 selects GOMAXPROCS); a set Launcher carries its own.
	Workers int
	// Launcher executes the shards; nil selects an InProcessLauncher over
	// Store, Workers and Logger.
	Launcher Launcher
	// Retry is the per-shard retry policy; the zero value means a single
	// attempt per shard.
	Retry RetryPolicy
	// Logger receives structured progress (leases, retries, stalls) with
	// shard/host/attempt attributes; nil is silent.
	Logger *slog.Logger
	// StallAfter is how stale a running shard's latest progress mark may
	// get before the orchestrator warns it stalled — the early dead-worker
	// signal that fires before the retry timeout. 0 selects three progress
	// intervals (6s); negative disables stall monitoring.
	StallAfter time.Duration

	// spans records this run's sweep/shard/attempt spans; Run creates it
	// and commits it to the store under SweepSpansName.
	spans *telemetry.SpanRecorder
	// sweepSpanID parents the shard spans under the run's root span.
	sweepSpanID string
}

// Outcome reports one orchestrator run.
type Outcome struct {
	// Manifest is the plan the sweep ran under.
	Manifest *Manifest
	// Ran and Skipped are the shard IDs executed and resumed-over.
	Ran, Skipped []int
	// Retries is the number of extra shard leases taken after launch
	// failures (0 on a fault-free sweep).
	Retries int
	// ExcludedHosts names the hosts excluded after failing a lease, sorted
	// and deduplicated across shards (empty on a fault-free sweep).
	ExcludedHosts []string
	// Records are the merged results of all shards, in grid order.
	Records []RunRecord
	// Wall is the wall-clock time of this invocation (excluding skipped
	// shards' original runtime).
	Wall time.Duration
}

// Results converts the merged records into sim results, in grid order.
func (o *Outcome) Results() []sim.Result {
	results := make([]sim.Result, len(o.Records))
	for i, rec := range o.Records {
		results[i] = rec.Result()
	}
	return results
}

// Summary folds the merged records into the sim batch summary, using this
// invocation's wall-clock time. On a resumed sweep the counts cover the
// whole grid but checkpointed shards cost no wall time here, so derived
// rates are NOT throughput measurements — use RanSummary for those.
func (o *Outcome) Summary() sim.Summary {
	return sim.Summarise(o.Results(), o.Wall)
}

// RanSummary folds only the shards executed by this invocation into a
// summary: the honest throughput measurement for a resumed sweep. Sims is
// zero when everything came from the checkpoint.
func (o *Outcome) RanSummary() sim.Summary {
	ran := make(map[int]bool, len(o.Ran))
	for _, id := range o.Ran {
		ran[id] = true
	}
	var results []sim.Result
	idx := 0
	for _, sp := range o.Manifest.Shards {
		for range sp.Specs {
			if ran[sp.ID] && idx < len(o.Records) {
				results = append(results, o.Records[idx].Result())
			}
			idx++
		}
	}
	return sim.Summarise(results, o.Wall)
}

// log resolves the structured logger (nil Logger is silent).
func (o *Orchestrator) log() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return telemetry.NopLogger()
}

// Run executes (or resumes) a sweep of the grid split into nShards shards.
//
// With resume set and a manifest already present in the store, the stored
// shard plan is reused — after verifying that its grid hash matches specs,
// so a checkpoint cannot silently be completed against a different grid —
// and shards whose result object exists are skipped. Without resume, any
// previous checkpoint in the store is cleared first.
func (o *Orchestrator) Run(specs []JobSpec, nShards int, resume bool) (*Outcome, error) {
	st := o.Store
	if st == nil {
		return nil, fmt.Errorf("dispatch: orchestrator needs a store")
	}
	ln := o.Launcher
	if ln == nil {
		ln = &InProcessLauncher{Store: st, Workers: o.Workers, Logger: o.Logger}
	}
	// A misconfigured launcher is a configuration error, not a per-shard
	// failure: surface it before any checkpoint state is touched, not
	// through the retry schedule.
	if v, ok := ln.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	start := time.Now()

	// The sweep span wraps everything from planning through merge; it and
	// the shard/attempt spans below it are committed to the store so
	// `clgpsim figures -trace-out` can stitch the full execution trace.
	o.spans = telemetry.NewSpanRecorder(SweepSpansName)
	sweep := o.spans.Begin(telemetry.SpanSweep, "sweep", SweepSpansName, "")
	o.sweepSpanID = sweep.ID()
	defer func() {
		sweep.End()
		writeSpans(st, SweepSpansName, o.spans.Spans(), o.log())
	}()

	m, err := o.resolveManifest(st, specs, nShards, resume)
	if err != nil {
		return nil, err
	}

	out := &Outcome{Manifest: m}
	var pending []int
	for _, sp := range m.Shards {
		done, err := st.ShardComplete(sp)
		if err != nil {
			return nil, err
		}
		if done {
			out.Skipped = append(out.Skipped, sp.ID)
		} else {
			pending = append(pending, sp.ID)
		}
	}
	o.log().Info("sweep planned",
		"grid", m.GridHash, "jobs", m.NumJobs(), "shards", len(m.Shards),
		"complete", len(out.Skipped), "pending", len(pending), "slots", ln.Slots())

	out.Retries, out.ExcludedHosts, err = o.execute(st, ln, m, pending)
	if err != nil {
		return nil, err
	}
	out.Ran = pending

	out.Records, err = MergeStore(st, m)
	if err != nil {
		return nil, err
	}
	out.Wall = time.Since(start)
	return out, nil
}

// resolveManifest resolves the manifest for this run: loading and
// validating the stored one on resume, planning and persisting a fresh one
// otherwise. A fresh start clears any leftover shard results first.
func (o *Orchestrator) resolveManifest(st Store, specs []JobSpec, nShards int, resume bool) (*Manifest, error) {
	if resume {
		m, err := st.LoadManifest()
		switch {
		case err == nil:
			if got, want := m.GridHash, GridHash(specs); got != want {
				return nil, fmt.Errorf("dispatch: %s holds a checkpoint of a different grid (hash %s, this grid %s); use a fresh store or drop -resume",
					st.Location(), got, want)
			}
			return m, nil
		case errors.Is(err, os.ErrNotExist):
			// No checkpoint yet: resume degrades to a fresh start.
		default:
			// A manifest that exists but does not load is a real problem.
			return nil, err
		}
	}
	m, err := NewManifest(specs, nShards)
	if err != nil {
		return nil, err
	}
	// Clear leftovers BEFORE committing the manifest: if the order were
	// reversed, a crash between the two steps would leave a new-grid
	// manifest next to old-grid shard results, and a later resume would
	// merge the stale results as if they belonged to this grid.
	if err := st.ClearShards(); err != nil {
		return nil, err
	}
	if err := st.WriteManifest(m); err != nil {
		return nil, err
	}
	return m, nil
}

// execute leases the pending shards over the launcher's slots, applying the
// retry policy per shard, and returns the total retries taken plus the
// union of hosts excluded after failures. While shards run, a monitor
// goroutine polls the shards' span logs and warns about stalled shards
// before their retry timeout fires.
func (o *Orchestrator) execute(st Store, ln Launcher, m *Manifest, pending []int) (int, []string, error) {
	if len(pending) == 0 {
		return 0, nil, nil
	}
	slots := min(max(ln.Slots(), 1), len(pending))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		retries  int
		excluded = make(map[string]bool)
		firstErr error
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	if stallAfter := o.stallAfter(); stallAfter > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go o.monitorStalls(st, m, stallAfter, stop)
	}
	ids := make(chan int)
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				if failed() {
					continue // drain without running: fail fast
				}
				r, hosts, err := o.runShard(st, ln, m, id, slots)
				mu.Lock()
				retries += r
				for _, h := range hosts {
					excluded[h] = true
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, id := range pending {
		// Stop feeding new shards once one has exhausted its budget:
		// in-flight shards finish (and commit, so a resume keeps them),
		// but a deterministic failure does not grind through the whole
		// grid's retry schedule before surfacing.
		if failed() {
			break
		}
		ids <- id
	}
	close(ids)
	wg.Wait()
	hosts := make([]string, 0, len(excluded))
	for h := range excluded {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return retries, hosts, firstErr
}

// stallAfter resolves the stall threshold (0 = default, negative = off).
func (o *Orchestrator) stallAfter() time.Duration {
	if o.StallAfter != 0 {
		return o.StallAfter
	}
	return defaultStallAfter
}

// monitorStalls polls progress while shards run and warns — once per stall
// episode per shard — when a running shard's latest mark goes stale. This
// is purely a reporting channel: recovery still belongs to the retry
// policy, but the operator learns about a dead worker as soon as its marks
// age out instead of when the lease finally fails.
func (o *Orchestrator) monitorStalls(st Store, m *Manifest, stallAfter time.Duration, stop <-chan struct{}) {
	poll := stallAfter / 2
	if poll < 100*time.Millisecond {
		poll = 100 * time.Millisecond
	}
	if poll > 5*time.Second {
		poll = 5 * time.Second
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	flagged := make(map[int]bool)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			statuses, err := SweepProgress(st, m, time.Now(), stallAfter)
			if err != nil {
				continue // transient store trouble; the next poll retries
			}
			for _, s := range statuses {
				if s.State != "stalled" {
					delete(flagged, s.ID)
					continue
				}
				if flagged[s.ID] {
					continue
				}
				flagged[s.ID] = true
				mStallsFlagged.Inc()
				o.log().Warn("shard stalled: progress stale",
					"shard", s.Name, "host", s.Host,
					"age", s.Age.Round(time.Millisecond),
					"jobs_done", s.JobsDone, "jobs_total", s.JobsTotal,
					"stall_after", stallAfter)
			}
		}
	}
}

// runShard drives one shard through lease/verify/retry until it commits or
// the retry budget is spent; concurrent is the number of leases execute
// runs at once. A launcher reporting success without the store holding the
// result object is treated as a failure — commit, not exit status, is the
// completion signal.
func (o *Orchestrator) runShard(st Store, ln Launcher, m *Manifest, id, concurrent int) (retries int, excludedHosts []string, err error) {
	sp := m.Shards[id]
	lg := o.log().With("shard", sp.Name)
	policy := o.Retry.withDefaults()
	shardSpan := o.spans.Begin(telemetry.SpanShard, sp.Name, sp.Name, o.sweepSpanID)
	defer shardSpan.End()
	exclude := make(map[string]bool)
	excludedList := func() []string {
		hosts := make([]string, 0, len(exclude))
		for h := range exclude {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		return hosts
	}
	var lastErr error
	for attempt := 0; attempt < policy.Attempts; attempt++ {
		if attempt > 0 {
			delay := policy.Backoff(attempt - 1)
			lg.Warn("retrying shard",
				"lease", attempt+1, "attempts", policy.Attempts,
				"backoff", delay.Round(time.Millisecond),
				"excluded_hosts", excludedList())
			time.Sleep(delay)
			mBackoffWait.Add(uint64(delay.Milliseconds()))
			mRetries.Inc()
			retries++
		}
		mLeases.Inc()
		start := time.Now()
		attemptSpan := o.spans.Begin(telemetry.SpanAttempt,
			fmt.Sprintf("%s#%d", sp.Name, attempt+1), sp.Name, shardSpan.ID())
		host, err := ln.Launch(m, id, Lease{
			Attempt: attempt, Exclude: exclude, SpanParent: attemptSpan.ID(),
			Concurrent: concurrent,
		})
		if err == nil {
			// Commit, not exit status, is the completion signal. A failed
			// existence check is a launch failure too — retryable, never
			// conflated with "absent".
			done, cerr := st.ShardComplete(sp)
			if cerr != nil {
				err = cerr
			} else if !done {
				err = fmt.Errorf("dispatch: worker for %s (%s) exited cleanly without committing its results", sp.Name, host)
			}
		}
		attemptSpan.End()
		if err == nil {
			lg.Info("shard done", "host", host,
				"wall", time.Since(start).Round(time.Millisecond),
				"lease", attempt+1)
			return retries, excludedList(), nil
		}
		lastErr = err
		if host != "" {
			exclude[host] = true
		}
		lg.Warn("lease failed",
			"lease", attempt+1, "attempts", policy.Attempts,
			"host", host, "err", err)
	}
	return retries, excludedList(),
		fmt.Errorf("dispatch: shard %s failed after %d attempt(s): %w", sp.Name, policy.Attempts, lastErr)
}
