// Package stats collects and reports the measurements the paper evaluates:
// IPC, fetch-source and prefetch-source distributions, branch prediction
// accuracy, cache hit rates, and the speedup/harmonic-mean summaries used in
// the text and figures.
package stats

import (
	"fmt"
	"math"
	"strings"

	"clgp/internal/telemetry"
)

// Source identifies which storage level served a fetch or prefetch request.
// The names follow the paper's Figure 7/8 legend: PB (pre-buffer), il0, il1,
// ul2, Mem.
type Source int

const (
	// SrcPreBuffer is the prefetch/prestage buffer.
	SrcPreBuffer Source = iota
	// SrcL0 is the optional L0 instruction cache.
	SrcL0
	// SrcL1 is the L1 instruction cache.
	SrcL1
	// SrcL2 is the unified L2 cache.
	SrcL2
	// SrcMem is main memory.
	SrcMem

	// NumSources is the number of distinct sources.
	NumSources
)

// String returns the label used by the paper's figures.
func (s Source) String() string {
	switch s {
	case SrcPreBuffer:
		return "PB"
	case SrcL0:
		return "il0"
	case SrcL1:
		return "il1"
	case SrcL2:
		return "ul2"
	case SrcMem:
		return "Mem"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Distribution is a counter per source.
type Distribution [NumSources]uint64

// Add increments the counter of src by n.
func (d *Distribution) Add(src Source, n uint64) { d[src] += n }

// Total returns the sum over all sources.
func (d *Distribution) Total() uint64 {
	var t uint64
	for _, v := range d {
		t += v
	}
	return t
}

// Fraction returns the share (0..1) of src over the total; zero if empty.
func (d *Distribution) Fraction(src Source) float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return float64(d[src]) / float64(t)
}

// Fractions returns all source shares, in Source order.
func (d *Distribution) Fractions() [NumSources]float64 {
	var out [NumSources]float64
	t := d.Total()
	if t == 0 {
		return out
	}
	for i, v := range d {
		out[i] = float64(v) / float64(t)
	}
	return out
}

// Merge adds other into d.
func (d *Distribution) Merge(other Distribution) {
	for i, v := range other {
		d[i] += v
	}
}

// CycleCause identifies the leading cause a simulated cycle is charged to by
// the engine's cycle accounting. Every cycle — including spans the
// event-horizon clock fast-forwards over — is charged to exactly one cause,
// so the buckets of a CycleAccounts always sum to Results.Cycles.
type CycleCause int

const (
	// CycleCommit: at least one instruction committed this cycle.
	CycleCommit CycleCause = iota
	// CycleFrontend: fetch or branch-predictor stall (redirect penalty,
	// pre-buffer hit latency, block production, dispatch delivery).
	CycleFrontend
	// CycleRUUFull: the back-end window is full and fetch is back-pressured.
	CycleRUUFull
	// CycleMemory: waiting on an outstanding memory fill (demand fetch or
	// back-end load with free window slots).
	CycleMemory
	// CycleBus: the bus arbiter had queued requests contending for a grant.
	CycleBus
	// CyclePreBuffer: waiting on the prefetch engine — an in-flight prefetch
	// fill or a candidate blocked on prefetch-buffer pressure.
	CyclePreBuffer
	// CycleWrongPath: the front-end was on a mispredicted path (production,
	// wrong-path fetch, and the resolution cycle itself).
	CycleWrongPath

	// NumCycleCauses is the number of distinct causes.
	NumCycleCauses
)

// String returns the stable label used in figures and metrics.
func (c CycleCause) String() string {
	switch c {
	case CycleCommit:
		return "commit"
	case CycleFrontend:
		return "frontend"
	case CycleRUUFull:
		return "ruu_full"
	case CycleMemory:
		return "memory"
	case CycleBus:
		return "bus"
	case CyclePreBuffer:
		return "prebuffer"
	case CycleWrongPath:
		return "wrong_path"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// CycleAccounts charges every simulated cycle to exactly one CycleCause.
// The conservation invariant — Total() == Results.Cycles — holds in both
// clock modes, and skip/no-skip accounts are bit-identical (enforced by the
// core equivalence tests).
type CycleAccounts [NumCycleCauses]uint64

// Add charges n cycles to cause c.
func (a *CycleAccounts) Add(c CycleCause, n uint64) { a[c] += n }

// Total returns the sum over all causes.
func (a *CycleAccounts) Total() uint64 {
	var t uint64
	for _, v := range a {
		t += v
	}
	return t
}

// Fraction returns the share (0..1) of cause c over the total; zero if empty.
func (a *CycleAccounts) Fraction(c CycleCause) float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return float64(a[c]) / float64(t)
}

// Merge adds other into a.
func (a *CycleAccounts) Merge(other CycleAccounts) {
	for i, v := range other {
		a[i] += v
	}
}

// FormatCycleAccounts renders a cycle breakdown as "commit 42.0%  memory
// 31.5% ...", skipping empty causes.
func FormatCycleAccounts(a CycleAccounts) string {
	if a.Total() == 0 {
		return "(none)"
	}
	var parts []string
	for c := CycleCause(0); c < NumCycleCauses; c++ {
		if a[c] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", c, 100*a.Fraction(c)))
	}
	return strings.Join(parts, "  ")
}

// Results holds all the counters of one simulation run.
type Results struct {
	// Name labels the run (benchmark and configuration).
	Name string

	// Cycles is the total number of simulated cycles.
	Cycles uint64
	// Committed is the number of committed (correct-path) instructions.
	Committed uint64
	// Fetched is the number of instructions delivered by the fetch stage,
	// including wrong-path instructions that are later squashed.
	Fetched uint64
	// WrongPathFetched is the subset of Fetched that was on a wrong path.
	WrongPathFetched uint64

	// FetchSources counts instruction-fetch line accesses by supplier.
	FetchSources Distribution
	// PrefetchSources counts prefetch requests by the level that supplied
	// (or already held) the line: a pre-buffer "hit" means no new prefetch
	// was needed.
	PrefetchSources Distribution

	// Branches is the number of committed conditional branches.
	Branches uint64
	// Mispredictions is the number of committed mispredicted branches
	// (direction or target).
	Mispredictions uint64

	// L1Accesses / L1Misses count demand accesses to the L1 I-cache.
	L1Accesses, L1Misses uint64
	// L0Accesses / L0Misses count demand accesses to the L0 cache.
	L0Accesses, L0Misses uint64
	// L2Accesses / L2Misses count instruction-side accesses to the L2.
	L2Accesses, L2Misses uint64
	// DCacheAccesses / DCacheMisses count data-side L1 accesses.
	DCacheAccesses, DCacheMisses uint64

	// PrefetchesIssued counts prefetch requests sent to the hierarchy.
	PrefetchesIssued uint64
	// PrefetchesUseful counts prefetched lines that were fetched at least
	// once before being evicted from the pre-buffer.
	PrefetchesUseful uint64
	// BusConflicts counts cycles in which a request was delayed by bus
	// arbitration.
	BusConflicts uint64

	// CycleAccounts charges every simulated cycle to exactly one leading
	// cause. Unlike Telemetry it is an architectural result: it is
	// bit-identical across clock modes and trace backings (the equivalence
	// tests compare it), sums under Merge, and survives WithoutTelemetry.
	CycleAccounts CycleAccounts

	// Telemetry carries the engine's simulator-speed and instrumentation
	// counters (skipped cycles, fast-forward jumps, prefetch cancels,
	// window residency). Unlike every field above it is mode-dependent —
	// the clock mode and trace backing change it while the architectural
	// results stay bit-identical — so cross-mode equivalence checks must
	// compare WithoutTelemetry(). Merge drops it for the same reason.
	Telemetry *telemetry.Snapshot `json:"Telemetry,omitempty"`
}

// WithoutTelemetry returns a copy of r with the mode-dependent Telemetry
// block stripped, for bit-identity comparisons across clock modes, trace
// backings, and snapshot-restored vs straight runs.
func (r Results) WithoutTelemetry() Results {
	r.Telemetry = nil
	return r
}

// IPC returns committed instructions per cycle.
func (r *Results) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// BranchMispredRate returns the fraction of committed conditional branches
// that were mispredicted.
func (r *Results) BranchMispredRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredictions) / float64(r.Branches)
}

// L1MissRate returns the L1 I-cache demand miss rate.
func (r *Results) L1MissRate() float64 { return rate(r.L1Misses, r.L1Accesses) }

// L0MissRate returns the L0 cache demand miss rate.
func (r *Results) L0MissRate() float64 { return rate(r.L0Misses, r.L0Accesses) }

// DCacheMissRate returns the L1 D-cache miss rate.
func (r *Results) DCacheMissRate() float64 { return rate(r.DCacheMisses, r.DCacheAccesses) }

// PrefetchUsefulness returns the fraction of issued prefetches whose line
// was used before eviction.
func (r *Results) PrefetchUsefulness() float64 {
	return rate(r.PrefetchesUseful, r.PrefetchesIssued)
}

// OneCycleFetchFraction returns the share of fetches served by one-cycle
// sources (pre-buffer or L0): the metric the paper quotes as "88%/95% of
// fetches provided by the prestage buffer (and L0)".
func (r *Results) OneCycleFetchFraction() float64 {
	t := r.FetchSources.Total()
	if t == 0 {
		return 0
	}
	return float64(r.FetchSources[SrcPreBuffer]+r.FetchSources[SrcL0]) / float64(t)
}

func rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Merge accumulates other into r (cycle counts add; the result is only
// meaningful for aggregate counters, not for IPC, which callers should
// compute per run and combine with HarmonicMean).
func (r *Results) Merge(other *Results) {
	r.Cycles += other.Cycles
	r.Committed += other.Committed
	r.Fetched += other.Fetched
	r.WrongPathFetched += other.WrongPathFetched
	r.FetchSources.Merge(other.FetchSources)
	r.PrefetchSources.Merge(other.PrefetchSources)
	r.Branches += other.Branches
	r.Mispredictions += other.Mispredictions
	r.L1Accesses += other.L1Accesses
	r.L1Misses += other.L1Misses
	r.L0Accesses += other.L0Accesses
	r.L0Misses += other.L0Misses
	r.L2Accesses += other.L2Accesses
	r.L2Misses += other.L2Misses
	r.DCacheAccesses += other.DCacheAccesses
	r.DCacheMisses += other.DCacheMisses
	r.PrefetchesIssued += other.PrefetchesIssued
	r.PrefetchesUseful += other.PrefetchesUseful
	r.BusConflicts += other.BusConflicts
	r.CycleAccounts.Merge(other.CycleAccounts)
	// Telemetry is per-run (mode-dependent high-water marks don't sum
	// meaningfully across configs); aggregation happens at the sweep level
	// via telemetry.Snapshot.Merge instead.
	r.Telemetry = nil
}

// HarmonicMean returns the harmonic mean of xs, the average the paper uses
// to summarise per-benchmark IPC (the HMEAN bar of Figure 6). Zero or
// negative values make the mean zero.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// Summary renders the headline counters of a run as a human-readable block.
func (r *Results) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: %s\n", r.Name)
	fmt.Fprintf(&b, "  cycles:               %d\n", r.Cycles)
	fmt.Fprintf(&b, "  committed insts:      %d\n", r.Committed)
	fmt.Fprintf(&b, "  IPC:                  %.4f\n", r.IPC())
	fmt.Fprintf(&b, "  branch mispred rate:  %.4f\n", r.BranchMispredRate())
	fmt.Fprintf(&b, "  L1I miss rate:        %.4f\n", r.L1MissRate())
	fmt.Fprintf(&b, "  one-cycle fetches:    %.1f%%\n", 100*r.OneCycleFetchFraction())
	fmt.Fprintf(&b, "  cycle breakdown:      %s\n", FormatCycleAccounts(r.CycleAccounts))
	fmt.Fprintf(&b, "  fetch sources:        %s\n", FormatDistribution(r.FetchSources))
	fmt.Fprintf(&b, "  prefetch sources:     %s\n", FormatDistribution(r.PrefetchSources))
	fmt.Fprintf(&b, "  prefetches issued:    %d (useful %.1f%%)\n",
		r.PrefetchesIssued, 100*r.PrefetchUsefulness())
	return b.String()
}

// FormatDistribution renders a distribution as "PB 86.2% il0 8.1% ...",
// skipping empty sources.
func FormatDistribution(d Distribution) string {
	if d.Total() == 0 {
		return "(none)"
	}
	var parts []string
	for s := Source(0); s < NumSources; s++ {
		if d[s] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", s, 100*d.Fraction(s)))
	}
	return strings.Join(parts, "  ")
}

// Table is a simple fixed-column text table used by the figure harness to
// print paper-style series.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named sequence of (x, y) points, one per swept parameter value
// (e.g. IPC vs. L1 I-cache size for one configuration). It is the unit the
// figure harness produces.
type Series struct {
	// Name is the configuration label (e.g. "CLGP + L0 + PB:16").
	Name string
	// X holds the swept parameter values (e.g. cache sizes in bytes).
	X []float64
	// Y holds the measured values (e.g. IPC). On a replicated series Y is
	// the per-point mean over the seed replicates.
	Y []float64

	// N, Stddev and CI95 are the replication columns, parallel to X/Y: the
	// replicate count, sample standard deviation and 95% confidence
	// half-width (t-distribution) of each point's mean. They are nil on
	// single-seed series — points appended with Add — so single-seed
	// serialisation stays byte-identical to the pre-replication format.
	N      []int
	Stddev []float64
	CI95   []float64
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// AddStat appends a replicated point: the accumulator's mean becomes the y
// value and its spread fills the replication columns. Mixing Add and AddStat
// on one series would desynchronise the parallel arrays, so a series is
// either fully replicated or not at all (Replicated reports which).
func (s *Series) AddStat(x float64, w Welford) {
	s.Add(x, w.Mean)
	s.N = append(s.N, w.Count)
	s.Stddev = append(s.Stddev, w.Stddev())
	s.CI95 = append(s.CI95, w.CI95Half())
}

// Replicated reports whether the series carries replication columns.
func (s *Series) Replicated() bool { return len(s.N) > 0 }

// StatAt returns the replication columns for the given x: replicate count,
// sample stddev and 95% CI half-width. It returns zeros when x is absent or
// the series is not replicated.
func (s *Series) StatAt(x float64) (n int, stddev, ci95 float64) {
	if !s.Replicated() {
		return 0, 0, 0
	}
	for i, xv := range s.X {
		if xv == x && i < len(s.N) {
			return s.N[i], s.Stddev[i], s.CI95[i]
		}
	}
	return 0, 0, 0
}

// YAt returns the y value for the given x, or NaN if x is absent.
func (s *Series) YAt(x float64) float64 {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i]
		}
	}
	return math.NaN()
}

// SeriesSet is a collection of series sharing the same X axis, i.e. one
// paper figure.
type SeriesSet struct {
	// Title of the figure.
	Title string
	// XLabel and YLabel describe the axes.
	XLabel, YLabel string
	// Labels, when set, makes the X axis categorical: x values are indices
	// into Labels (the per-benchmark figures use the profile names here).
	Labels []string
	// Series are the plotted configurations.
	Series []*Series
}

// Find returns the series with the given name, or nil.
func (ss *SeriesSet) Find(name string) *Series {
	for _, s := range ss.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Table renders the series set as a text table with one row per X value and
// one column per series, which is how the reproduction prints each figure.
// With a nil xFormat, categorical labels are used when the set has them.
func (ss *SeriesSet) Table(xFormat func(float64) string) *Table {
	if xFormat == nil {
		xFormat = ss.Label
	}
	t := &Table{Header: []string{ss.XLabel}}
	for _, s := range ss.Series {
		t.Header = append(t.Header, s.Name)
	}
	for _, x := range ss.xValues() {
		row := []string{xFormat(x)}
		for _, s := range ss.Series {
			y := s.YAt(x)
			switch {
			case math.IsNaN(y):
				row = append(row, "-")
			case s.Replicated():
				n, _, ci := s.StatAt(x)
				row = append(row, fmt.Sprintf("%.4f±%.4f(n=%d)", y, ci, n))
			default:
				row = append(row, fmt.Sprintf("%.4f", y))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// FormatBytes renders a byte count the way the paper labels cache sizes
// (256B, 1KB, 64KB, 1MB).
func FormatBytes(n float64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%gMB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%gKB", n/(1<<10))
	default:
		return fmt.Sprintf("%gB", n)
	}
}
