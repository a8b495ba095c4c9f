package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"clgp/internal/stats"
	"clgp/internal/telemetry"
)

// runRecord is everything one run measured: the -out file format and the
// input of compare.
type runRecord struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     int    `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics holds every metric the run measured, end-to-end and
	// per-layer alike; the contract line prints one group of them.
	Metrics map[string]float64 `json:"metrics"`
	// N is the sample count behind each timing.
	N map[string]int `json:"n"`
	// Walls are the untraced pass walls in reference seconds, by input set.
	Walls [][]float64 `json:"walls"`
	// Scales are the host-speed factors that turned each untraced pass's
	// host time into reference seconds, in run order.
	Scales []float64 `json:"scales"`
	// Tail is the step-time percentile the tail rule reports.
	Tail   string   `json:"tail"`
	Checks []string `json:"checks"`
	// Layers, Coverage and Reconcile summarise a traced run's spans.
	Layers    map[string]layerTime `json:"layers,omitempty"`
	Coverage  float64              `json:"span_coverage,omitempty"`
	Reconcile float64              `json:"dispatch_reconcile,omitempty"`
}

// exactMetrics are the deterministic counts: for one seed they repeat
// exactly on every run, and compare requires that they do.
var exactMetrics = func() map[string]bool {
	m := map[string]bool{"core.ipc_hmean": true, "snap.bytes": true, "tracefile.bytes_per_record": true}
	var c counters
	for name := range c.metrics() {
		m[name] = true
	}
	return m
}()

func (b *bench) record() *runRecord {
	r := &runRecord{
		Workload: b.name, Seed: b.seed, Correct: b.failed == 0,
		Attempted: b.attempted, Failed: b.failed, Checks: b.checks, Scales: b.scales,
		Metrics: b.totals.metrics(),
		N:       map[string]int{"setup_s": len(b.setup), "wall_s": len(b.scales), "sets": len(b.sets)},
	}
	if b.traced {
		r.Trace = 1
	}
	m := r.Metrics
	m["core.ipc_hmean"] = stats.HarmonicMean(b.ipcs)
	m["setup_s"] = median(b.setup)
	// A pass's wall is the mean over the input sets of each set's median
	// pass, and its work the mean of the sets' committed instructions. The
	// step percentiles are taken within each pass and aggregated the same
	// way, so a burst of host load that slows part of one pass moves one
	// sample of a median, not the tail of every step.
	var wall, traced, committed, p50, p90 float64
	var tracedPasses int
	p90ok := true
	for _, st := range b.sets {
		r.Walls = append(r.Walls, st.walls)
		wall += median(st.walls)
		traced += median(st.tracedWalls)
		tracedPasses += len(st.tracedWalls)
		committed += st.committed
		var mid, hi []float64
		for _, pass := range st.steps {
			s := sortedCopy(pass)
			mid = append(mid, percentile(s, 500))
			hi = append(hi, percentile(s, 900))
			// The reported tail is p90, which every pass must measure with
			// ten samples beyond it; a run whose passes are too short for
			// that omits the metric and fails.
			p90ok = p90ok && reportable(900, len(s))
			if r.Tail == "" {
				r.N["step_ms"] = len(s)
				if p, v, ok := tail(s); ok {
					r.Tail = fmt.Sprintf("%s of the first pass = %.4g ms", formatPermille(p), v)
				}
			}
		}
		p50 += median(mid)
		p90 += median(hi)
	}
	n := float64(len(b.sets))
	if wall > 0 {
		m["wall_s"] = wall / n
		m["sim_kips"] = committed / wall / 1000
		m["core.step_ms_p50"] = p50 / n
		if p90ok {
			m["core.step_ms_p90"] = p90 / n
		}
	}
	m["peak_rss_mb"] = float64(telemetry.ReadHostSample().MaxRSSBytes) / 1e6
	m["runtime.gc_cpu_frac"] = ratio(b.gcCPU, b.cpu)
	for name, xs := range b.samples {
		m[name] = median(xs)
		r.N[name] = len(xs)
	}
	if b.traced {
		m["trace_overhead_frac"] = traced/wall - 1
		r.N["traced_passes"] = tracedPasses
	}
	return r
}

// contractResult selects the group's metrics, in BENCHMARK.json order, for
// the final output line. A metric the run did not measure is an error.
func (r *runRecord) contractResult(group []metricSpec) (*result, error) {
	res := &result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(group))}
	var missing []string
	for _, ms := range group {
		v, ok := r.Metrics[ms.Name]
		if !ok {
			missing = append(missing, ms.Name)
			continue
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s did not measure %s", r.Workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// print writes the human-readable report: every metric of the group with
// its unit and sample count, then the checks.
func (r *runRecord) print(w io.Writer, group []metricSpec) {
	mode := "untraced"
	if r.Trace == 1 {
		mode = fmt.Sprintf("traced (%d of %d passes traced)", r.N["traced_passes"], r.N["traced_passes"]+r.N["wall_s"])
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  %d input sets  times in reference seconds\n", r.Workload, r.Seed, mode, r.N["sets"])
	for _, ms := range group {
		note := ""
		switch {
		case ms.Name == "setup_s":
			note = fmt.Sprintf("median, n=%d", r.N[ms.Name])
		case ms.Name == "wall_s" || ms.Name == "sim_kips":
			note = fmt.Sprintf("mean over %d input sets of the median pass, n=%d", r.N["sets"], r.N["wall_s"])
		case strings.HasPrefix(ms.Name, "core.step_ms_"):
			note = fmt.Sprintf("nearest rank within each pass of n=%d steps, aggregated like wall_s; tail rule: %s", r.N["step_ms"], r.Tail)
		case exactMetrics[ms.Name]:
			note = "deterministic"
		case r.N[ms.Name] > 0:
			note = fmt.Sprintf("median, n=%d", r.N[ms.Name])
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %s\n", ms.Name, r.Metrics[ms.Name], ms.Unit, note)
	}
	if r.Trace == 1 {
		fmt.Fprintf(w, "  span self-time coverage of traced passes: %.4f\n", r.Coverage)
		if r.Reconcile > 0 {
			fmt.Fprintf(w, "  dispatch phases + sweep self time / Orchestrator.Run: %.4f\n", r.Reconcile)
		}
		names := make([]string, 0, len(r.Layers))
		for name := range r.Layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			l := r.Layers[name]
			fmt.Fprintf(w, "  self time %-10s %10.2f ms/pass  %6.2f%%\n", name, l.SelfMSPerPass, 100*l.Share)
		}
	}
	fmt.Fprintf(w, "checks: %d operations, %d failed\n", r.Attempted, r.Failed)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  %s\n", c)
	}
}

// resultSet is a file of runs, appended to by -out and read by compare.
type resultSet struct {
	Runs []*runRecord `json:"runs"`
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func appendRun(path string, r *runRecord) error {
	s, err := loadSet(path)
	if errors.Is(err, os.ErrNotExist) {
		s, err = &resultSet{}, nil
	}
	if err != nil {
		return err
	}
	s.Runs = append(s.Runs, r)
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
