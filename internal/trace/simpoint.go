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

// Profile splits the source's records into intervals of intervalLen and
// computes a basic-block frequency vector per interval, in one forward pass
// over the source. The final partial interval is kept only if it is at
// least half full (a shorter one is not read). A record whose PC is not
// InstBytes-aligned or does not continue the previous record's Target fails
// the profile, naming the record's index.
func Profile(src RecordReaderAt, intervalLen int) ([]IntervalProfile, error) {
	if intervalLen <= 0 {
		return nil, fmt.Errorf("trace: interval length must be positive, got %d", intervalLen)
	}
	n := src.Len()
	var out []IntervalProfile
	var prevTarget isa.Addr
	buf := make([]Record, min(n, 4096))
	for i := 0; i < n; {
		got, err := src.ReadRecordsAt(i, buf[:min(n-i, len(buf))])
		if err != nil {
			return nil, err
		}
		for _, r := range buf[:got] {
			if err := checkContinuity(i, r.PC, prevTarget); err != nil {
				return nil, err
			}
			prevTarget = r.Target
			if i%intervalLen == 0 {
				end := min(i+intervalLen, n)
				if end-i < intervalLen/2 && len(out) > 0 {
					return out, nil
				}
				out = append(out, IntervalProfile{Start: i, End: end, Freq: map[isa.Addr]int{r.PC: 1}})
			}
			if r.Taken || r.Target != r.PC+isa.InstBytes {
				out[len(out)-1].Freq[r.Target]++
			}
			i++
		}
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
// closest (L1 distance) to the average distribution of the whole source,
// mirroring the SimPoint "single representative slice" usage of the paper.
// It returns the chosen interval and its index; copying its records out is
// the caller's (tracefile.Slice for a container).
func RepresentativeSlice(src RecordReaderAt, intervalLen int) (IntervalProfile, int, error) {
	profiles, err := Profile(src, intervalLen)
	if err != nil {
		return IntervalProfile{}, 0, err
	}
	if len(profiles) == 0 {
		return IntervalProfile{}, 0, fmt.Errorf("trace: empty trace")
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
	return profiles[best], best, nil
}
