// Package figures assembles the paper's figure series from a sweep's merged
// run records: Figure 1 (IPC vs L1I size, baseline vs ideal), Figure 6
// (per-benchmark IPC of every engine variant), Figures 7 and 8 (fetch and
// prefetch sources) and the cycle breakdown, one set of each per technology
// node. On a replicated grid every point is a replicate mean with N, stddev
// and CI95 columns; single-seed output is byte-identical to the
// pre-replication format.
package figures

import (
	"fmt"
	"path/filepath"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/dispatch"
	"clgp/internal/stats"
	"clgp/internal/workload"
)

// Figure is one emitted figure: the file base it is written under (no
// directory, no extension) and its series.
type Figure struct {
	Name string
	Set  *stats.SeriesSet
}

// key indexes merged records by the grid dimensions the figures group on.
// Replicates of one grid point share a key; they differ only in Spec.Rep.
type key struct {
	profile, tech, engine string
	l0, ideal             bool
	size                  int
}

func keyOf(s dispatch.JobSpec) key {
	return key{s.Profile, s.Tech, s.Engine, s.UseL0, s.Ideal, s.L1Size}
}

// repIndex holds merged records regrouped by grid point, each point's
// replicates in replicate order. reps is the grid's replicate count (1 on a
// single-seed grid).
type repIndex struct {
	byKey map[key][]*stats.Results
	reps  int
}

func indexRecords(recs []dispatch.RunRecord) *repIndex {
	ix := &repIndex{byKey: make(map[key][]*stats.Results, len(recs)), reps: 1}
	for _, rec := range recs {
		if rec.Spec.Rep+1 > ix.reps {
			ix.reps = rec.Spec.Rep + 1
		}
	}
	for _, rec := range recs {
		k := keyOf(rec.Spec)
		rs := ix.byKey[k]
		if rs == nil {
			rs = make([]*stats.Results, ix.reps)
		}
		rs[rec.Spec.Rep] = rec.Stats
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
func (ix *repIndex) vals(k key, metric func(*stats.Results) float64) []float64 {
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
func (ix *repIndex) hmeanVals(keys []key, metric func(*stats.Results) float64) []float64 {
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
func (ix *repIndex) addPoint(s *stats.Series, x float64, vals []float64) {
	if !ix.replicated() {
		s.Add(x, vals[0])
		return
	}
	var w stats.Welford
	for _, v := range vals {
		w.Add(v)
	}
	s.AddStat(x, w)
}

func ipc(r *stats.Results) float64 { return r.IPC() }

// techTag renders a node as a filename-friendly tag ("90nm").
func techTag(t cacti.Tech) string {
	switch t {
	case cacti.Tech90:
		return "90nm"
	case cacti.Tech45:
		return "45nm"
	}
	return t.String()
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

// Build assembles the paper's figures from merged records, per node in
// techs, with figures 6/7/8 and the cycle breakdown at L1 size figL1.
func Build(recs []dispatch.RunRecord, techs []cacti.Tech, figL1 int) ([]Figure, error) {
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
		return nil, fmt.Errorf("-fig-l1 %d is not in the swept L1 sizes %v; figures 6/7/8 would be empty", figL1, sizes)
	}
	var figs []Figure
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
			baseKeys := make([]key, len(profiles))
			idealKeys := make([]key, len(profiles))
			for i, prof := range profiles {
				baseKeys[i] = key{prof, techStr, "none", false, false, size}
				idealKeys[i] = key{prof, techStr, "none", false, true, size}
			}
			if vals := ix.hmeanVals(baseKeys, ipc); vals != nil {
				ix.addPoint(fig1.Ensure("baseline"), float64(size), vals)
			}
			if vals := ix.hmeanVals(idealKeys, ipc); vals != nil {
				ix.addPoint(fig1.Ensure("ideal"), float64(size), vals)
			}
		}
		figs = append(figs, Figure{"figure1_ipc_vs_l1_" + tag, fig1})

		// Figure 6: per-benchmark IPC of every engine variant at the
		// representative L1 size, with the HMEAN bar the paper appends.
		fig6 := &stats.SeriesSet{
			Title: fmt.Sprintf("Figure 6 — per-benchmark IPC @ L1=%s (%s)",
				stats.FormatBytes(float64(figL1)), techStr),
			XLabel: "benchmark", YLabel: "IPC",
			Labels: append(append([]string{}, profiles...), "HMEAN"),
		}
		for _, v := range engineVariants {
			keys := make([]key, len(profiles))
			complete := true
			for pi, prof := range profiles {
				k := key{prof, techStr, v.engine.String(), v.l0, false, figL1}
				keys[pi] = k
				vals := ix.vals(k, ipc)
				if vals == nil {
					complete = false
					continue
				}
				ix.addPoint(fig6.Ensure(v.label), float64(pi), vals)
			}
			if complete {
				if vals := ix.hmeanVals(keys, ipc); vals != nil {
					ix.addPoint(fig6.Ensure(v.label), float64(len(profiles)), vals)
				}
			}
		}
		figs = append(figs, Figure{"figure6_ipc_" + tag, fig6})

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
			k := key{prof, techStr, "clgp", true, false, figL1}
			if ix.byKey[k] == nil {
				continue
			}
			for src := stats.Source(0); src < stats.NumSources; src++ {
				fetch := ix.vals(k, func(r *stats.Results) float64 { return r.FetchSources.Fractions()[src] })
				pref := ix.vals(k, func(r *stats.Results) float64 { return r.PrefetchSources.Fractions()[src] })
				if fetch != nil {
					ix.addPoint(fig7.Ensure(src.String()), float64(pi), fetch)
				}
				if pref != nil {
					ix.addPoint(fig8.Ensure(src.String()), float64(pi), pref)
				}
			}
		}
		figs = append(figs,
			Figure{"figure7_fetch_sources_" + tag, fig7},
			Figure{"figure8_prefetch_sources_" + tag, fig8})

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
				k := key{prof, techStr, v.engine.String(), v.l0, false, figL1}
				if ix.byKey[k] == nil {
					continue
				}
				for c := stats.CycleCause(0); c < stats.NumCycleCauses; c++ {
					vals := ix.vals(k, func(r *stats.Results) float64 { return r.CycleAccounts.Fraction(c) })
					if vals != nil {
						ix.addPoint(figCyc.Ensure(v.label+"/"+c.String()), float64(pi), vals)
					}
				}
			}
		}
		figs = append(figs, Figure{"cycle_breakdown_" + tag, figCyc})
	}
	return figs, nil
}

// Write persists every figure as <dir>/<name>.json and <dir>/<name>.csv and
// returns the file bases written, in figure order.
func Write(dir string, figs []Figure) ([]string, error) {
	bases := make([]string, 0, len(figs))
	for _, f := range figs {
		base := filepath.Join(dir, f.Name)
		if err := f.Set.WriteFiles(base); err != nil {
			return nil, err
		}
		bases = append(bases, base)
	}
	return bases, nil
}

// IPCByL1 is the sweep preset's table: one IPC series per engine over the
// L1 sizes, its points in spec order (replicates folded as the figures fold
// them). It returns the set, untitled, and the grid's replicate count.
func IPCByL1(specs []dispatch.JobSpec, recs []dispatch.RunRecord) (*stats.SeriesSet, int) {
	ix := indexRecords(recs)
	set := &stats.SeriesSet{XLabel: "L1I", YLabel: "IPC"}
	for _, s := range specs {
		if s.Rep != 0 {
			continue
		}
		if vals := ix.vals(keyOf(s), ipc); vals != nil {
			ix.addPoint(set.Ensure(s.Engine), float64(s.L1Size), vals)
		}
	}
	return set, ix.reps
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
