// Command benchgate judges the core perf gate: the paired runs of
// internal/core's BenchmarkCoreGrid and BenchmarkSnapshotGrid that make
// bench-gate takes of a parent build and of the change on one host.
//
// Usage:
//
//	go run ./internal/benchgate DIR
//
// DIR holds the raw `go test -bench` output of every run, one file per
// invocation, named <side>-<pair>.<part>.txt: side is parent or change,
// pair counts from 1, and part (the benchmark the invocation selected) is
// free. It prints the paired medians, then one line per violation (see
// gate for the rules) on stderr and exits 1, or a pass line.
package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The gate's budget and floors.
const (
	// MaxRegress is the tolerated ns/cycle growth of the change over the
	// parent build measured on the same host (0.10 = 10%).
	MaxRegress = 0.10
	// NoiseNs is an absolute slack, in ns/cycle over the parent's median,
	// added on top of the relative budget: deltas smaller than a few
	// ns/cycle are scheduler noise, not regressions — without the floor, a
	// 4ns wobble on a 35ns mcf profile would flake the gate while a genuine
	// 40ns regression on a 300ns one sailed through.
	NoiseNs = 8.0
	// minMissHeavySpeedup is the floor on the skip-over-no-skip speedup for
	// the miss-heavy profile (mcf), the event-horizon clock's reason to
	// exist. twolf is only moderately miss-heavy: most of its wins come from
	// eliding dead back-end walks, which both clock modes share.
	minMissHeavySpeedup = 1.6
	// minSpeedup is the floor on the skip-over-no-skip speedup everywhere:
	// no point may be slower with skipping than without (0.95 leaves
	// measurement noise room).
	minSpeedup = 0.95
	// maxAllocsPerKCycle bounds heap allocations per thousand simulated
	// cycles over the timed Steps. The loop allocates only when a free list
	// grows past its high-water mark, so steady state sits far below 1; a
	// single per-cycle allocation would show up as ~1000.
	maxAllocsPerKCycle = 1.0
	// minSnapshotSpeedup is the floor on the snapshot grid's cold/warm
	// ns/op. A warm op simulates half the instructions of a cold one
	// (warm-up is half the run), so the work ratio alone predicts ~2x;
	// restoring and the non-linearity of warm-up cycles against measured
	// cycles eat into it. If restoring is not at least 20% faster than
	// re-simulating a warm-up-dominated grid, the snapshot path has
	// regressed into pointlessness.
	minSnapshotSpeedup = 1.2
)

// missHeavy reports whether a profile is held to minMissHeavySpeedup.
func missHeavy(profile string) bool { return profile == "mcf" }

// run is one side's measurements in one pair: benchmark name, without its
// GOMAXPROCS suffix, to its metrics by unit. fails holds the failure lines
// the run printed.
type run struct {
	metrics map[string]map[string]float64
	fails   []string
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./internal/benchgate DIR")
		os.Exit(2)
	}
	parent, change, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench gate: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(format(parent, change))
	if bad := gate(parent, change); len(bad) > 0 {
		for _, p := range bad {
			fmt.Fprintf(os.Stderr, "bench gate: %s\n", p)
		}
		fmt.Fprintf(os.Stderr, "bench gate: %d violation(s)\n", len(bad))
		os.Exit(1)
	}
	fmt.Printf("bench gate: pass (every profile within +%.0f%% +%.0fns of the parent, every floor held)\n",
		100*MaxRegress, NoiseNs)
}

var (
	fileName = regexp.MustCompile(`^(parent|change)-([1-9][0-9]*)\.[^/]*\.txt$`)
	procs    = regexp.MustCompile(`-[0-9]+$`)
)

// load reads every run file in dir and returns each side's runs, indexed
// by pair - 1. A pair a side has no file for is an empty run.
func load(dir string) (parent, change []*run, err error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	runs := map[string][]*run{}
	pairs := 0
	for _, path := range names {
		m := fileName.FindStringSubmatch(filepath.Base(path))
		if m == nil {
			continue
		}
		pair, _ := strconv.Atoi(m[2])
		pairs = max(pairs, pair)
		for len(runs[m[1]]) < pair {
			runs[m[1]] = append(runs[m[1]], &run{metrics: map[string]map[string]float64{}})
		}
		if err := runs[m[1]][pair-1].parse(path); err != nil {
			return nil, nil, err
		}
	}
	if pairs == 0 {
		return nil, nil, fmt.Errorf("no <side>-<pair>.<part>.txt run files in %s", dir)
	}
	for _, side := range []string{"parent", "change"} {
		for len(runs[side]) < pairs {
			runs[side] = append(runs[side], &run{metrics: map[string]map[string]float64{}})
		}
	}
	return runs["parent"], runs["change"], nil
}

// parse adds one file of `go test -bench` output to r: each result line's
// name, iteration count and (value, unit) pairs. Lines that report a failed
// test or benchmark, a panic or a non-zero exit are kept as failures.
func (r *run) parse(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "panic:") {
			r.fails = append(r.fails, filepath.Base(path)+": "+line)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procs.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
		metrics := map[string]float64{}
		for i := 2; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("%s: %q: %w", path, line, err)
			}
			metrics[fields[i+1]] = v
		}
		r.metrics[name] = metrics
	}
	return sc.Err()
}

// pointRec is one CoreGrid point's measurement in one run: each mode's
// full-run cycles/run and insts/run and timed ns/cycle, the skipped
// fraction, and the larger allocs/kcycle of the two modes (NaN when a mode
// reported none).
type pointRec struct {
	cycles, noskipCycles float64
	insts, noskipInsts   float64
	skipNs, noskipNs     float64
	skipped, allocs      float64
}

// point returns the record of the CoreGrid point "<profile>/<engine>" in r,
// and whether both of its modes were measured.
func (r *run) point(name string) (pointRec, bool) {
	skip, ok1 := r.metrics["CoreGrid/"+name+"/skip"]
	noskip, ok2 := r.metrics["CoreGrid/"+name+"/noskip"]
	if !ok1 || !ok2 {
		return pointRec{}, false
	}
	allocs := math.NaN()
	if a, ok := skip["allocs/kcycle"]; ok {
		if b, ok := noskip["allocs/kcycle"]; ok {
			allocs = max(a, b)
		}
	}
	return pointRec{
		cycles: skip["cycles/run"], noskipCycles: noskip["cycles/run"],
		insts: skip["insts/run"], noskipInsts: noskip["insts/run"],
		skipNs: skip["ns/cycle"], noskipNs: noskip["ns/cycle"],
		skipped: skip["skipped/cycle"], allocs: allocs,
	}, true
}

// pointNames returns every CoreGrid point ("<profile>/<engine>") any run
// measured a mode of, sorted.
func pointNames(runs []*run) []string {
	seen := map[string]bool{}
	for _, r := range runs {
		for b := range r.metrics {
			if parts := strings.Split(b, "/"); len(parts) == 4 && parts[0] == "CoreGrid" {
				seen[parts[1]+"/"+parts[2]] = true
			}
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// pairedPoint is one grid point over the gate's paired runs.
type pairedPoint struct {
	name, profile string
	// parent and change hold the point's record from each run; pair i is
	// (parent[i], change[i]).
	parent, change []pointRec
	// ratio is the median of the per-pair change/parent ns/cycle ratios.
	ratio float64
	// speedup, allocs and skipped are the change's medians of the
	// skip-over-no-skip speedup, allocs/kcycle and the skipped fraction.
	speedup, allocs, skipped float64
}

// pairPoints folds the paired runs into per-point medians, in name order.
// A point is folded only when every run of both sides measured both its
// modes, over a non-empty run, with the same insts/run, the same
// cycles/run in both modes and an allocs/kcycle figure; otherwise it is
// reported in bad instead.
func pairPoints(parent, change []*run) (pts []pairedPoint, bad []string) {
	for _, name := range pointNames(append(append([]*run(nil), parent...), change...)) {
		p, c := records(parent, name), records(change, name)
		if len(p) != len(parent) || len(c) != len(change) {
			bad = append(bad, fmt.Sprintf("%s: measured in %d/%d parent and %d/%d change runs",
				name, len(p), len(parent), len(c), len(change)))
			continue
		}
		if problem := checkRecords(p, c); problem != "" {
			bad = append(bad, name+": "+problem)
			continue
		}
		ratios := make([]float64, len(p))
		for i := range p {
			ratios[i] = c[i].skipNs / p[i].skipNs
		}
		pts = append(pts, pairedPoint{
			name: name, profile: strings.Split(name, "/")[0], parent: p, change: c,
			ratio:   median(ratios),
			speedup: medianOf(c, func(r pointRec) float64 { return r.noskipNs / r.skipNs }),
			allocs:  medianOf(c, func(r pointRec) float64 { return r.allocs }),
			skipped: medianOf(c, func(r pointRec) float64 { return r.skipped }),
		})
	}
	return pts, bad
}

// records returns the point's record from every run that measured it.
func records(runs []*run, name string) []pointRec {
	var recs []pointRec
	for _, r := range runs {
		if rec, ok := r.point(name); ok {
			recs = append(recs, rec)
		}
	}
	return recs
}

// checkRecords returns why a point's records cannot be compared, or "": every
// record, on both sides, must have timed a non-empty run in both modes,
// simulated as many cycles skipping as ticking every cycle (the
// skip-equivalence contract), committed the same instruction count and
// reported allocs/kcycle.
func checkRecords(parent, change []pointRec) string {
	for _, recs := range [][]pointRec{parent, change} {
		for _, r := range recs {
			if r.cycles <= 0 || r.skipNs <= 0 || r.noskipNs <= 0 {
				return "a run measured no cycles"
			}
			if r.cycles != r.noskipCycles {
				return fmt.Sprintf("skip path simulated %.0f cycles, no-skip %.0f: equivalence broken", r.cycles, r.noskipCycles)
			}
			if r.insts != parent[0].insts || r.noskipInsts != parent[0].insts {
				return "committed-instruction counts differ between runs"
			}
			if math.IsNaN(r.allocs) {
				return "a run reported no allocs/kcycle"
			}
		}
	}
	return ""
}

// pairedProfile is one profile's cycle-weighted ns/cycle over the gate's
// paired runs.
type pairedProfile struct {
	name   string
	points []string
	// parentNs is the parent's median; ratio is the median of the per-pair
	// change/parent ratios and allowed the largest ratio the budget
	// tolerates at parentNs.
	parentNs, ratio, allowed float64
}

// pairProfiles folds paired points into per-profile cycle-weighted
// ns/cycle, in the order the profiles first appear.
func pairProfiles(pts []pairedPoint) []pairedProfile {
	var order []string
	byProfile := map[string][]pairedPoint{}
	for _, p := range pts {
		if byProfile[p.profile] == nil {
			order = append(order, p.profile)
		}
		byProfile[p.profile] = append(byProfile[p.profile], p)
	}
	var out []pairedProfile
	for _, name := range order {
		group := byProfile[name]
		parent := weightedNs(group, func(p pairedPoint) []pointRec { return p.parent })
		change := weightedNs(group, func(p pairedPoint) []pointRec { return p.change })
		ratios := make([]float64, len(parent))
		for i := range parent {
			ratios[i] = change[i] / parent[i]
		}
		pp := pairedProfile{name: name, parentNs: median(parent), ratio: median(ratios)}
		pp.allowed = 1 + MaxRegress + NoiseNs/pp.parentNs
		for _, p := range group {
			pp.points = append(pp.points, p.name)
		}
		out = append(out, pp)
	}
	return out
}

// weightedNs returns, per run, the cycle-weighted ns/cycle over one side of
// a profile's points.
func weightedNs(group []pairedPoint, side func(pairedPoint) []pointRec) []float64 {
	ns := make([]float64, len(side(group[0])))
	for i := range ns {
		var wall, cycles float64
		for _, p := range group {
			r := side(p)[i]
			wall += r.skipNs * r.cycles
			cycles += r.cycles
		}
		ns[i] = wall / cycles
	}
	return ns
}

// gate judges the change build's runs against the parent build's runs,
// taken in alternating pairs on one host: parent[i] and change[i] are pair
// i. A profile regresses when the median over pairs of its per-pair
// change/parent ratio of cycle-weighted ns/cycle (its skip points' ns/cycle
// weighted by cycles/run) exceeds MaxRegress plus NoiseNs over the
// parent's median. Profiles, not single grid points, are judged because a
// point's ratio alone swings too far between identical builds on a shared
// host for five pairs to settle it. The floors (minSpeedup,
// minMissHeavySpeedup, maxAllocsPerKCycle, minSnapshotSpeedup) are judged
// on the change's medians. Every point must be measured in both modes in
// every run of both sides, over a non-empty run with the same insts/run
// throughout and the same cycles/run in both modes; a point or snapshot
// grid missing from any run is reported, never skipped, and so is every
// failure line a run printed. gate returns
// one human-readable violation per failure, sorted; an empty slice is a
// pass.
func gate(parent, change []*run) []string {
	if len(parent) == 0 || len(parent) != len(change) {
		return []string{fmt.Sprintf("need the same non-zero number of parent and change runs, got %d and %d",
			len(parent), len(change))}
	}
	var bad []string
	for _, r := range append(append([]*run(nil), parent...), change...) {
		bad = append(bad, r.fails...)
	}
	pts, unpaired := pairPoints(parent, change)
	bad = append(bad, unpaired...)
	if len(pts) == 0 && len(unpaired) == 0 {
		bad = append(bad, "no CoreGrid point measured")
	}
	for _, p := range pairProfiles(pts) {
		if p.ratio > p.allowed {
			bad = append(bad, fmt.Sprintf("%s (%s): median change/parent cycle-weighted ns/cycle ratio %.3f exceeds %.3f (+%.0f%% +%.0fns over the parent's median %.1f ns/cycle)",
				p.name, strings.Join(p.points, ", "), p.ratio, p.allowed, 100*MaxRegress, NoiseNs, p.parentNs))
		}
	}
	for _, p := range pts {
		if missHeavy(p.profile) && p.speedup < minMissHeavySpeedup {
			bad = append(bad, fmt.Sprintf("%s: median event-horizon speedup %.2fx below the miss-heavy floor %.2fx",
				p.name, p.speedup, minMissHeavySpeedup))
		}
		if p.speedup < minSpeedup {
			bad = append(bad, fmt.Sprintf("%s: skipping is slower than the per-cycle path (median %.2fx < %.2fx)",
				p.name, p.speedup, minSpeedup))
		}
		if p.allocs > maxAllocsPerKCycle {
			bad = append(bad, fmt.Sprintf("%s: median %.3f allocs/kcycle above %.0f — the loop is allocating",
				p.name, p.allocs, maxAllocsPerKCycle))
		}
	}
	if ps, cs := snapshotSpeedups(parent), snapshotSpeedups(change); len(ps) != len(parent) || len(cs) != len(change) {
		bad = append(bad, fmt.Sprintf("SnapshotGrid: measured in %d/%d parent and %d/%d change runs",
			len(ps), len(parent), len(cs), len(change)))
	} else if m := median(cs); m < minSnapshotSpeedup {
		bad = append(bad, fmt.Sprintf("SnapshotGrid: median warm-restore speedup %.2fx below the %.2fx floor over cold warm-up",
			m, minSnapshotSpeedup))
	}
	sort.Strings(bad)
	return bad
}

// snapshotSpeedups returns the cold/warm ns/op ratios of the runs that
// measured both halves of the snapshot grid.
func snapshotSpeedups(runs []*run) []float64 {
	var xs []float64
	for _, r := range runs {
		cold, warm := r.metrics["SnapshotGrid/cold"]["ns/op"], r.metrics["SnapshotGrid/warm"]["ns/op"]
		if cold > 0 && warm > 0 {
			xs = append(xs, cold/warm)
		}
	}
	return xs
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(recs []pointRec, f func(pointRec) float64) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = f(r)
	}
	return median(xs)
}

// format renders the gate's medians: per grid point, each side's median
// skip ns/cycle, the median per-pair ratio and the change's median speedup
// over the per-cycle path and skipped share; per profile, the judged
// cycle-weighted ratio and the ratio the budget allows. Points the gate
// cannot pair are left out (gate reports them).
func format(parent, change []*run) string {
	var sb strings.Builder
	pts, _ := pairPoints(parent, change)
	skipNs := func(r pointRec) float64 { return r.skipNs }
	fmt.Fprintf(&sb, "%-16s %12s %12s %8s %8s %9s %8s\n",
		"grid point", "parent ns/c", "change ns/c", "ratio", "allowed", "speedup", "skipped")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%-16s %12.1f %12.1f %8.3f %8s %8.2fx %7.1f%%\n",
			p.name, medianOf(p.parent, skipNs), medianOf(p.change, skipNs), p.ratio, "", p.speedup, 100*p.skipped)
	}
	for _, p := range pairProfiles(pts) {
		fmt.Fprintf(&sb, "%-16s %12.1f %12s %8.3f %8.3f\n", p.name+" (weighted)", p.parentNs, "", p.ratio, p.allowed)
	}
	if ps, cs := snapshotSpeedups(parent), snapshotSpeedups(change); len(ps) == len(parent) && len(cs) == len(change) {
		fmt.Fprintf(&sb, "SnapshotGrid: median warm-restore speedup %.2fx (parent %.2fx)\n", median(cs), median(ps))
	}
	fmt.Fprintf(&sb, "(medians over %d alternating pairs; ratio is the median of per-pair change/parent ns/cycle; profiles are judged)\n", len(change))
	return sb.String()
}
