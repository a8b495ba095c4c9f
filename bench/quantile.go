package main

import (
	"fmt"
	"sort"
)

// median returns the middle sample (the mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of the permille-th per-mille point of n
// samples: the smallest rank with at least permille/1000 of the samples at
// or below it. Integer arithmetic keeps p90 of 100 samples at rank 90.
func rank(permille, n int) int {
	return max(1, (permille*n+999)/1000)
}

// percentile returns the nearest-rank percentile (in per mille) of sorted.
func percentile(sorted []float64, permille int) float64 {
	return sorted[rank(permille, len(sorted))-1]
}

// reportable reports whether a percentile of n samples has at least ten
// samples beyond it, the condition for reporting it at all.
func reportable(permille, n int) bool {
	return n > 0 && n-rank(permille, n) >= 10
}

// tailCandidates are the percentiles, in per mille, the tail rule picks from.
var tailCandidates = []int{500, 900, 950, 990, 999}

// tail applies the reporting rule for a timing: the highest candidate
// percentile that has at least ten samples beyond it. ok is false when even
// the median has fewer.
func tail(xs []float64) (permille int, v float64, ok bool) {
	s := sortedCopy(xs)
	for _, c := range tailCandidates {
		if reportable(c, len(s)) {
			permille, v, ok = c, percentile(s, c), true
		}
	}
	return permille, v, ok
}

// formatPermille renders 900 as "p90" and 999 as "p99.9".
func formatPermille(permille int) string {
	if permille%10 == 0 {
		return fmt.Sprintf("p%d", permille/10)
	}
	return fmt.Sprintf("p%d.%d", permille/10, permille%10)
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default 'exclusive' method),
// which the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
