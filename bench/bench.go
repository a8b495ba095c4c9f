package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"clgp/internal/stats"
	"clgp/internal/telemetry"
)

// scale sizes a run. Every commit measures fullScale; the smoke test runs
// the same code at a few thousand instructions.
type scale struct {
	// runInsts is the length of one single-run simulation, and interval the
	// committed-instruction step it is timed in: 100 steps per run, so
	// every pass measures its own p90 with ten steps beyond it.
	runInsts, interval int
	// gridInsts sizes every grid point, with a warm-state snapshot at
	// gridWarmup.
	gridInsts, gridWarmup int
	// profiles are the grid's workloads; sizes its L1 sizes (nil: the
	// paper's nine, 256B–64KB).
	profiles []string
	sizes    []int
}

// fullScale's grid profiles span small (gzip, mcf) and large (gcc, twolf)
// instruction working sets, so the L1 axis crosses each working set at a
// different size.
var fullScale = scale{
	runInsts: 2_000_000, interval: 20_000,
	gridInsts: 10_000, gridWarmup: 5_000,
	profiles: []string{"gzip", "gcc", "mcf", "twolf"},
}

// setSeed derives the workload-generation seed of input set j.
func setSeed(seed int64, j int) int64 { return seed*100 + int64(j) }

// benchWorkload is one benchmark workload. prepare and pass are timed by the
// caller; everything else is untimed.
type benchWorkload interface {
	// digestKey names the committed digests the workload checks against.
	digestKey() string
	// sets is the number of input sets a run prepares from its seed.
	// Programs generated from different seeds differ in simulated work, so
	// a run measures several and reports their mean.
	sets() int
	// cpus is the number of CPUs a pass keeps busy, and so the number of
	// calibration copies that measure the host's speed beside it.
	cpus() int
	// prepare builds input set j: generation, recording and a first engine
	// build, whatever the workload needs before its first pass.
	prepare(b *bench, j int) error
	// pass runs one timed pass over input set j. parent is the span ID to
	// parent traced calls under ("" when untraced).
	pass(b *bench, j int, parent string) (passOut, error)
	// afterPass runs untimed after every pass: collecting a traced pass's
	// spans and store sizes, and releasing per-pass state.
	afterPass(b *bench, traced bool) error
	// reference cross-checks results when the seed has no committed digests.
	reference(b *bench) error
	// probe times standalone calls into layers the passes do not time
	// (traced runs only).
	probe(b *bench) error
	close()
}

// jobResults is one simulation of an input set's jobs.
type jobResults struct {
	names   []string
	results []*stats.Results // nil where the job failed
}

// passOut is what one pass produced.
type passOut struct {
	// runs are the pass's simulations of its input set: one single run, or
	// a sweep's cold and restored grids. Each must match the set's digest.
	runs []jobResults
	// steps are the host times of the pass's incremental units in ms: 20K
	// committed instructions of a single run, or one grid point of a sweep
	// (its cold job plus its restored job). Their sum is the host time the
	// pass spent simulating.
	steps []float64
}

// setState is what a run remembers about one input set.
type setState struct {
	names        []string // job names of the first observation
	jobs         []string // per-job digests of the first observation
	observations int      // passes and reference runs checked
	counted      bool     // counters taken from a timed pass of this set
	committed    float64  // committed instructions per pass

	walls, tracedWalls []float64   // pass walls, reference s
	steps              [][]float64 // each untraced pass's steps, reference ms
}

// bench accumulates one run's measurements. Every host time it keeps is in
// reference seconds (see calibrate.go).
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	traced  bool
	scratch string
	scale   scale
	expect  []string // committed per-set digests; nil cross-checks instead

	// calibrate measures the host's speed with the given number of
	// parallel copies; cal is its latest reading.
	calibrate func(par int) float64
	cpus      int
	cal       float64

	spans    *telemetry.SpanRecorder // bench spans; nil when untraced
	stitched []telemetry.Span        // dispatch spans stitched under bench spans
	passIDs  []string                // span IDs of traced passes

	setup  []float64 // s
	scales []float64 // host-speed factor of each pass, run order

	attempted, failed int
	checks            []string
	sets              []setState
	totals            counters
	ipcs              []float64

	// samples holds per-layer samples by metric name.
	samples    map[string][]float64
	gcCPU, cpu float64
}

func newBench(name string, seed int64, seconds time.Duration, traced bool, scratch string) *bench {
	b := &bench{name: name, seed: seed, seconds: seconds, traced: traced, scratch: scratch,
		scale: fullScale, calibrate: calibrate, samples: map[string][]float64{}}
	if traced {
		b.spans = telemetry.NewSpanRecorder("bench")
	}
	return b
}

// recalibrate measures the host's speed and returns the factor that turns a
// host time measured since the previous calibration into reference seconds.
func (b *bench) recalibrate() float64 {
	c := b.calibrate(b.cpus)
	k := speedScale(b.cal, c)
	b.cal = c
	return k
}

// scaleNow is the factor that turns a host time measured now into reference
// seconds, by the latest calibration.
func (b *bench) scaleNow() float64 { return calRef / b.cal }

// benchLane is the trace track of the benchmark's own spans.
const benchLane = "bench"

// begin starts a bench span around a call into a layer; nil when untraced.
func (b *bench) begin(name, parent string) *telemetry.ActiveSpan {
	return b.spans.Begin("bench", name, benchLane, parent)
}

func (b *bench) sample(metric string, v float64) {
	b.samples[metric] = append(b.samples[metric], v)
}

// timeCall runs f inside a span and records its host time under metric in
// the given unit (a time.Duration divisor), scaled by the latest
// calibration.
func (b *bench) timeCall(metric string, unit time.Duration, span, parent string, f func() error) error {
	sp := b.begin(span, parent)
	start := time.Now()
	err := f()
	d := time.Since(start)
	sp.End()
	if err == nil && metric != "" {
		b.sample(metric, float64(d)/float64(unit)*b.scaleNow())
	}
	return err
}

// run prepares the input sets, runs timed passes until the measuring time
// is spent (at least one round over the sets, two when traced), then
// cross-checks and probes. A calibration follows every set-up and pass.
func (b *bench) run(w benchWorkload) (*runRecord, error) {
	defer w.close()
	n := w.sets()
	b.sets = make([]setState, n)
	b.cpus = w.cpus()
	b.cal = b.calibrate(b.cpus)
	for j := 0; j < n; j++ {
		start := time.Now()
		if err := w.prepare(b, j); err != nil {
			return nil, fmt.Errorf("set-up of input set %d: %w", j, err)
		}
		d := time.Since(start).Seconds()
		b.setup = append(b.setup, d*b.recalibrate())
	}
	rounds := 1
	if b.traced {
		rounds = 2
	}
	deadline := time.Now().Add(b.seconds)
	var allocs, gcs []float64
	for i := 0; i < rounds*n || time.Now().Before(deadline); i++ {
		j := i % n
		// A traced run traces every other round, so the tracing overhead is
		// measured within the run on the same input sets.
		traced := b.traced && (i/n)%2 == 0
		var sp *telemetry.ActiveSpan
		if traced {
			sp = b.begin("pass", "")
		}
		before := readRuntime()
		start := time.Now()
		out, err := w.pass(b, j, sp.ID())
		wall := time.Since(start).Seconds()
		sp.End()
		after := readRuntime()
		if err != nil {
			return nil, fmt.Errorf("pass %d (input set %d): %w", i, j, err)
		}
		k := b.recalibrate()
		st := &b.sets[j]
		if traced {
			st.tracedWalls = append(st.tracedWalls, wall*k)
			b.passIDs = append(b.passIDs, sp.ID())
		} else {
			st.walls = append(st.walls, wall*k)
			b.scales = append(b.scales, k)
			steps := make([]float64, len(out.steps))
			for i, ms := range out.steps {
				steps[i] = ms * k
			}
			st.steps = append(st.steps, steps)
		}
		b.check(j, out, true)
		b.gcCPU += after.gcCPU - before.gcCPU
		b.cpu += after.cpu - before.cpu
		allocs = append(allocs, (after.allocBytes-before.allocBytes)/1e6)
		gcs = append(gcs, after.gcCycles-before.gcCycles)
		var c counters
		for _, run := range out.runs {
			for _, r := range run.results {
				c.add(r)
			}
		}
		var simNS float64
		for _, ms := range out.steps {
			simNS += ms * 1e6 * k
		}
		if cycles := c.res.Cycles; cycles > 0 {
			b.sample("core.ns_per_cycle", simNS/float64(cycles))
			b.sample("core.allocs_per_kcycle", 1000*(after.allocObjects-before.allocObjects)/float64(cycles))
		}
		if ticked := c.res.Cycles - c.tel.SkippedCycles; ticked > 0 {
			b.sample("core.ns_per_ticked_cycle", simNS/float64(ticked))
		}
		if err := w.afterPass(b, traced); err != nil {
			return nil, err
		}
	}
	b.samples["runtime.alloc_mb_per_pass"] = allocs
	b.samples["runtime.num_gc"] = gcs
	if b.expect == nil {
		if err := w.reference(b); err != nil {
			return nil, fmt.Errorf("reference check: %w", err)
		}
	} else {
		b.checks = append(b.checks, fmt.Sprintf("every pass checked against the digests committed for seed %d", b.seed))
	}
	if b.traced {
		if err := w.probe(b); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	return b.record(), nil
}

// check digests a pass (or a reference run, timed=false) and counts
// failures: job errors, and digests that disagree with the committed ones —
// or, for a seed without committed digests, with the first observation of
// the set. Counters come from the first timed pass of each set, so they
// repeat exactly for a seed however many passes fit in the measuring time.
func (b *bench) check(j int, out passOut, timed bool) {
	st := &b.sets[j]
	for _, run := range out.runs {
		digests := make([]string, len(run.results))
		for i, r := range run.results {
			d, err := resultDigest(r)
			if err != nil {
				d = "failed: " + err.Error()
			}
			digests[i] = d
		}
		b.attempted += len(digests)
		bad := 0
		for i, r := range run.results {
			differs := b.expect == nil && st.jobs != nil && (i >= len(st.jobs) || digests[i] != st.jobs[i])
			if r == nil || differs {
				bad++
			}
		}
		if b.expect != nil && (j >= len(b.expect) || combineDigests(run.names, digests) != b.expect[j]) {
			bad = len(digests)
		}
		b.failed += bad
		if st.jobs == nil {
			st.names, st.jobs = run.names, digests
		}
	}
	st.observations++
	if timed && !st.counted {
		st.counted = true
		for _, run := range out.runs {
			for _, r := range run.results {
				if r != nil {
					b.totals.add(r)
					b.ipcs = append(b.ipcs, r.IPC())
					st.committed += float64(r.Committed)
				}
			}
		}
	}
}

// setDigests returns the pass digest of every input set's first
// observation, the values -record-digests commits.
func (b *bench) setDigests() []string {
	out := make([]string, len(b.sets))
	for j, st := range b.sets {
		out[j] = combineDigests(st.names, st.jobs)
	}
	return out
}

// counters sums the results of many runs: the architectural counters with
// stats.Results.Merge, the simulator-speed telemetry with Snapshot.Merge.
type counters struct {
	runs int
	res  stats.Results
	tel  telemetry.Snapshot
}

func (c *counters) add(r *stats.Results) {
	if r == nil {
		return
	}
	c.runs++
	c.res.Merge(r)
	if r.Telemetry != nil {
		c.tel.Merge(*r.Telemetry)
	}
}

// ratio is num/den, or 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics derives the deterministic per-layer counts.
func (c *counters) metrics() map[string]float64 {
	r, t := &c.res, &c.tel
	cyc, com := float64(r.Cycles), float64(r.Committed)
	m := map[string]float64{
		"core.skipped_frac":            ratio(float64(t.SkippedCycles), cyc),
		"core.ff_jumps_per_kcycle":     1000 * ratio(float64(t.FastForwards), cyc),
		"core.wrongpath_produced_frac": ratio(float64(t.WrongPathProduced), cyc),
		"bpred.mispredict_rate":        r.BranchMispredRate(),
		"bpred.wrongpath_fetch_frac":   ratio(float64(r.WrongPathFetched), float64(r.Fetched)),
		"prefetch.issued_per_kinst":    1000 * ratio(float64(r.PrefetchesIssued), com),
		"prefetch.useful_frac":         r.PrefetchUsefulness(),
		"prefetch.cancelled_per_kinst": 1000 * ratio(float64(t.PrefetchesCancelled), com),
		"prebuffer.fetch_frac":         r.FetchSources.Fraction(stats.SrcPreBuffer),
		"cache.l0_miss_rate":           r.L0MissRate(),
		"cache.l1i_miss_rate":          r.L1MissRate(),
		"cache.l1d_miss_rate":          r.DCacheMissRate(),
		"memory.l2_miss_rate":          ratio(float64(r.L2Misses), float64(r.L2Accesses)),
		"bus.conflicts_per_kcycle":     1000 * ratio(float64(r.BusConflicts), cyc),
		"trace.window_source_reads":    ratio(float64(t.WindowSourceReads), float64(c.runs)),
		"trace.window_max_resident":    float64(t.WindowMaxResident),
	}
	for cause := stats.CycleCause(0); cause < stats.NumCycleCauses; cause++ {
		m["pipeline.cycles_"+cause.String()+"_frac"] = r.CycleAccounts.Fraction(cause)
	}
	return m
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	gcCPU, cpu                         float64 // s
	allocBytes, allocObjects, gcCycles float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: val(0), cpu: val(1), allocBytes: val(2), allocObjects: val(3), gcCycles: val(4)}
}
