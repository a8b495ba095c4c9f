package trace

import (
	"fmt"
	"math"
	"sort"

	"clgp/internal/isa"
)

// The paper simulates "the most representative 300 million instruction
// slices" of each benchmark, selected with basic block distribution analysis
// (SimPoint). This file implements a small version of that analysis: the
// trace is divided into fixed-size intervals, each interval is summarised by
// its basic block (entry PC) execution frequency vector, and the interval
// closest to the whole-trace centroid is chosen as the representative slice.

// IntervalProfile is the basic-block-frequency summary of one interval.
type IntervalProfile struct {
	// Start and End are the record indices [Start, End) of the interval.
	Start, End int
	// Freq maps a basic-block leader PC to its execution count within the
	// interval. Leader PCs are approximated by the targets of taken control
	// flow plus the first record of the interval.
	Freq map[isa.Addr]int
}

// Profile splits the trace into intervals of intervalLen records and
// computes a basic-block frequency vector per interval. The final partial
// interval is kept only if it is at least half full.
func Profile(t *MemTrace, intervalLen int) ([]IntervalProfile, error) {
	if intervalLen <= 0 {
		return nil, fmt.Errorf("trace: interval length must be positive, got %d", intervalLen)
	}
	n := t.Len()
	var out []IntervalProfile
	for start := 0; start < n; start += intervalLen {
		end := start + intervalLen
		if end > n {
			end = n
			if end-start < intervalLen/2 && len(out) > 0 {
				break
			}
		}
		p := IntervalProfile{Start: start, End: end, Freq: make(map[isa.Addr]int)}
		leader := t.At(start).PC
		p.Freq[leader]++
		for i := start; i < end; i++ {
			r := t.At(i)
			if r.Taken || r.Target != r.PC+isa.InstBytes {
				p.Freq[r.Target]++
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// normalise converts a frequency map into a unit-L1-norm vector over the
// union key set represented by keys.
func normalise(freq map[isa.Addr]int, keys []isa.Addr) []float64 {
	v := make([]float64, len(keys))
	total := 0
	for _, c := range freq {
		total += c
	}
	if total == 0 {
		return v
	}
	for i, k := range keys {
		v[i] = float64(freq[k]) / float64(total)
	}
	return v
}

// manhattan returns the L1 distance between two equal-length vectors.
func manhattan(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// RepresentativeSlice returns the interval whose basic-block distribution is
// closest (L1 distance) to the average distribution of the whole trace,
// mirroring the SimPoint "single representative slice" usage of the paper.
// It returns the chosen slice and its interval index.
func RepresentativeSlice(t *MemTrace, intervalLen int) (*MemTrace, int, error) {
	profiles, err := Profile(t, intervalLen)
	if err != nil {
		return nil, 0, err
	}
	if len(profiles) == 0 {
		return nil, 0, fmt.Errorf("trace: empty trace")
	}
	if len(profiles) == 1 {
		sl, err := t.Slice(profiles[0].Start, profiles[0].End)
		return sl, 0, err
	}
	// Union of keys across intervals, in deterministic order.
	keySet := make(map[isa.Addr]struct{})
	for _, p := range profiles {
		for k := range p.Freq {
			keySet[k] = struct{}{}
		}
	}
	keys := make([]isa.Addr, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	vectors := make([][]float64, len(profiles))
	centroid := make([]float64, len(keys))
	for i, p := range profiles {
		vectors[i] = normalise(p.Freq, keys)
		for j, x := range vectors[i] {
			centroid[j] += x
		}
	}
	for j := range centroid {
		centroid[j] /= float64(len(profiles))
	}
	best := 0
	bestDist := math.Inf(1)
	for i, v := range vectors {
		if d := manhattan(v, centroid); d < bestDist {
			bestDist = d
			best = i
		}
	}
	sl, err := t.Slice(profiles[best].Start, profiles[best].End)
	if err != nil {
		return nil, 0, err
	}
	return sl, best, nil
}
