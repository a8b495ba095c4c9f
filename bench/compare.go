package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain implements `compare A.json B.json`: for every end-to-end
// metric and workload it applies BENCHMARK.json's bound to the two sets'
// medians and quartiles, and it requires every deterministic count to be
// identical across all runs of the same workload and seed. It exits 1 when
// a metric got worse or a count differs.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	a, err := loadSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := loadSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if compareSets(os.Stdout, spec, a, b) {
		return 1
	}
	return 0
}

// verdict classifies B against A for one metric: "unresolved" when either
// side's quartile spread exceeds the bound (unless every B run reads better,
// or every one worse, than every A run), else "better"/"worse" when the
// medians differ by more than the bound, else "unchanged".
func verdict(ms metricSpec, a, b []float64) (string, float64) {
	medA, medB := median(a), median(b)
	change := ratio(medB-medA, medA)
	sign := 1.0 // +1: an increase is worse
	if ms.Better == "higher" {
		sign = -1
	}
	if spread(a) > ms.Bound || spread(b) > ms.Bound {
		above, below := minOf(b) > maxOf(a), maxOf(b) < minOf(a)
		switch {
		case (sign > 0 && above) || (sign < 0 && below):
			return "worse", change
		case (sign > 0 && below) || (sign < 0 && above):
			return "better", change
		}
		return "unresolved", change
	}
	switch {
	case sign*change > ms.Bound:
		return "worse", change
	case sign*change < -ms.Bound:
		return "better", change
	}
	return "unchanged", change
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

func minOf(xs []float64) float64 { return sortedCopy(xs)[0] }
func maxOf(xs []float64) float64 { return sortedCopy(xs)[len(xs)-1] }

func compareSets(w io.Writer, spec *benchSpec, a, b *resultSet) (bad bool) {
	fmt.Fprintf(w, "%-11s %-16s %5s %13s %13s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "n", "A median", "B median", "change", "A iqr", "B iqr", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := untraced(a, wl.Name), untraced(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-11s no untraced runs on one side\n", wl.Name)
			bad = true
			continue
		}
		for _, ms := range spec.EndToEnd {
			xa, xb := values(ra, ms.Name), values(rb, ms.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-11s %-16s missing on one side\n", wl.Name, ms.Name)
				bad = true
				continue
			}
			v, change := verdict(ms, xa, xb)
			if v == "worse" {
				bad = true
			}
			fmt.Fprintf(w, "%-11s %-16s %2d/%-2d %13.6g %13.6g %+7.2f%% %6.2f%% %6.2f%% %5.0f%%  %s\n",
				wl.Name, ms.Name, len(xa), len(xb), median(xa), median(xb), 100*change,
				100*spread(xa), 100*spread(xb), 100*ms.Bound, v)
		}
	}
	if compareCounts(w, append(append([]*runRecord(nil), a.Runs...), b.Runs...)) {
		bad = true
	}
	return bad
}

func untraced(s *resultSet, workload string) []*runRecord {
	var out []*runRecord
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []*runRecord, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// compareCounts requires every deterministic count to read the same on
// every run of a (workload, seed) that reports it, and reports true when one
// does not.
func compareCounts(w io.Writer, runs []*runRecord) (bad bool) {
	type key struct {
		workload string
		seed     int64
	}
	groups := map[key][]*runRecord{}
	var keys []key
	for _, r := range runs {
		k := key{r.Workload, r.Seed}
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	for _, k := range keys {
		first := map[string]float64{}
		differs := map[string]bool{}
		for _, r := range groups[k] {
			for name, v := range r.Metrics {
				if !exactMetrics[name] {
					continue
				}
				if f, ok := first[name]; !ok {
					first[name] = v
				} else if f != v {
					differs[name] = true
				}
			}
		}
		if len(differs) == 0 {
			fmt.Fprintf(w, "counts %-11s seed %d: %d counts identical over %d runs\n", k.workload, k.seed, len(first), len(groups[k]))
			continue
		}
		bad = true
		var names []string
		for name := range differs {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "counts %-11s seed %d: DIFFER: %v\n", k.workload, k.seed, names)
	}
	return bad
}
