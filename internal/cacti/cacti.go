// Package cacti models cache access latency as a function of size and
// technology process, playing the role of CACTI 3.0 plus the SIA roadmap in
// the paper.
//
// The paper only consumes CACTI through two artefacts:
//
//   - Table 1: the SIA technology roadmap (feature size, clock frequency,
//     cycle time) used to convert access time in nanoseconds into cycles.
//   - Table 3: the resulting L1 I-cache and L2 latencies, in cycles, for
//     each cache size at the 0.09um and 0.045um processes.
//
// Both tables are reproduced verbatim and are the authoritative source of
// latencies for the simulator. For sizes not listed (and for the sizing of
// the one-cycle pre-buffer/L0 structures) an analytical approximation in the
// spirit of CACTI is provided: access time grows roughly with the square
// root of capacity plus a wire-delay term that worsens at smaller feature
// sizes relative to the much faster clock.
package cacti

import (
	"fmt"
	"math"
	"sort"
)

// Tech identifies a technology process node.
type Tech int

const (
	// Tech180 is the 0.18um process (1999).
	Tech180 Tech = iota
	// Tech130 is the 0.13um process (2001).
	Tech130
	// Tech90 is the 0.09um process (2004) — the paper's "current" node.
	Tech90
	// Tech65 is the 0.065um process (2007).
	Tech65
	// Tech45 is the 0.045um process (2010) — the paper's "far future" node.
	Tech45

	numTechs
)

// String returns the conventional name of the node.
func (t Tech) String() string {
	switch t {
	case Tech180:
		return "0.18um"
	case Tech130:
		return "0.13um"
	case Tech90:
		return "0.09um"
	case Tech65:
		return "0.065um"
	case Tech45:
		return "0.045um"
	default:
		return fmt.Sprintf("tech(%d)", int(t))
	}
}

// Valid reports whether t is one of the defined nodes.
func (t Tech) Valid() bool { return t >= Tech180 && t < numTechs }

// ParseTech maps a node name to a Tech. It accepts the conventional names
// ("0.09um"), the feature size in nanometres ("90"), and the micron form
// without suffix ("0.09"), so it round-trips Tech.String and the short CLI
// spellings.
func ParseTech(s string) (Tech, error) {
	switch s {
	case "180", "0.18", "0.18um":
		return Tech180, nil
	case "130", "0.13", "0.13um":
		return Tech130, nil
	case "90", "0.09", "0.09um":
		return Tech90, nil
	case "65", "0.065", "0.065um":
		return Tech65, nil
	case "45", "0.045", "0.045um":
		return Tech45, nil
	}
	return 0, fmt.Errorf("cacti: unknown technology node %q (known: 180, 130, 90, 65, 45)", s)
}

// RoadmapEntry is one column of Table 1 of the paper: the SIA prediction for
// a processor generation.
type RoadmapEntry struct {
	// Year of the prediction.
	Year int
	// Tech is the feature size.
	Tech Tech
	// FeatureNM is the feature size in nanometres.
	FeatureNM int
	// ClockGHz is the predicted clock frequency in GHz.
	ClockGHz float64
	// CycleNS is the predicted cycle time in nanoseconds.
	CycleNS float64
}

// Roadmap returns Table 1 of the paper (SIA technology roadmap).
func Roadmap() []RoadmapEntry {
	return []RoadmapEntry{
		{Year: 1999, Tech: Tech180, FeatureNM: 180, ClockGHz: 0.5, CycleNS: 2},
		{Year: 2001, Tech: Tech130, FeatureNM: 130, ClockGHz: 1.7, CycleNS: 0.59},
		{Year: 2004, Tech: Tech90, FeatureNM: 90, ClockGHz: 4, CycleNS: 0.25},
		{Year: 2007, Tech: Tech65, FeatureNM: 65, ClockGHz: 6.7, CycleNS: 0.15},
		{Year: 2010, Tech: Tech45, FeatureNM: 45, ClockGHz: 11.5, CycleNS: 0.087},
	}
}

// RoadmapFor returns the roadmap entry for a given node.
func RoadmapFor(t Tech) (RoadmapEntry, error) {
	for _, e := range Roadmap() {
		if e.Tech == t {
			return e, nil
		}
	}
	return RoadmapEntry{}, fmt.Errorf("cacti: unknown technology %v", t)
}

// CycleTimeNS returns the cycle time in nanoseconds at node t.
func CycleTimeNS(t Tech) float64 {
	e, err := RoadmapFor(t)
	if err != nil {
		return math.NaN()
	}
	return e.CycleNS
}

// table3 holds the cache latencies of Table 3, in cycles, indexed by cache
// size in bytes. The 1MB entry is the unified L2.
var table3 = map[Tech]map[int]int{
	Tech90: {
		256:      1,
		512:      1,
		1 << 10:  2,
		2 << 10:  2,
		4 << 10:  3,
		8 << 10:  3,
		16 << 10: 3,
		32 << 10: 3,
		64 << 10: 3,
		1 << 20:  17,
	},
	Tech45: {
		256:      1,
		512:      2,
		1 << 10:  3,
		2 << 10:  4,
		4 << 10:  4,
		8 << 10:  4,
		16 << 10: 4,
		32 << 10: 4,
		64 << 10: 5,
		1 << 20:  24,
	},
}

// Table3Sizes returns the cache sizes (bytes) listed in Table 3, ascending.
func Table3Sizes() []int {
	sizes := make([]int, 0, len(table3[Tech90]))
	for s := range table3[Tech90] {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	return sizes
}

// L1Sizes returns the L1 I-cache sizes swept by the paper's figures
// (256B .. 64KB), ascending.
func L1Sizes() []int {
	return []int{256, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
}

// CacheLatency returns the access latency in cycles of a cache of the given
// size at node t, as published in Table 3. For sizes not in the table it
// falls back to the analytical model. The returned latency is always >= 1.
func CacheLatency(sizeBytes int, t Tech) int {
	if m, ok := table3[t]; ok {
		if lat, ok := m[sizeBytes]; ok {
			return lat
		}
	}
	return AnalyticalLatency(sizeBytes, t)
}

// L2Latency returns the latency in cycles of the paper's 1MB unified L2
// cache at node t (17 cycles at 0.09um, 24 cycles at 0.045um).
func L2Latency(t Tech) int {
	return CacheLatency(1<<20, t)
}

// MemoryLatency returns the main memory latency in cycles (Table 2: 200).
func MemoryLatency() int { return 200 }

// accessTimeNS is the analytical CACTI-like access time approximation in
// nanoseconds: a fixed decode/sense component plus a term that scales with
// the square root of capacity (word/bit line length), both shrinking with
// feature size but not as fast as the clock does.
func accessTimeNS(sizeBytes int, t Tech) float64 {
	e, err := RoadmapFor(t)
	if err != nil {
		return math.NaN()
	}
	scale := float64(e.FeatureNM) / 90.0 // 1.0 at the 90nm reference node
	base := 0.18 * scale                 // decode + sense amps
	wire := 0.011 * math.Sqrt(float64(sizeBytes)) * math.Pow(scale, 0.55)
	return base + wire
}

// AnalyticalLatency converts the analytical access time into cycles at node
// t, rounding up and never returning less than one cycle.
func AnalyticalLatency(sizeBytes int, t Tech) int {
	e, err := RoadmapFor(t)
	if err != nil {
		return 1
	}
	cyc := accessTimeNS(sizeBytes, t) / e.CycleNS
	lat := int(math.Ceil(cyc - 1e-9))
	if lat < 1 {
		lat = 1
	}
	return lat
}

// OneCycleCapacity returns the largest fully-associative buffer size in
// bytes that can be accessed in a single cycle at node t. The paper (using
// CACTI 3.0) determines 512 bytes at 0.09um and 256 bytes at 0.045um; these
// are the values used to size both the pre-buffers and the L0 cache.
func OneCycleCapacity(t Tech) int {
	switch t {
	case Tech180, Tech130:
		return 1 << 10
	case Tech90:
		return 512
	case Tech65:
		return 256
	case Tech45:
		return 256
	default:
		return 256
	}
}

// PreBufferPipelineDepth returns the number of pipeline stages needed to
// access a fully-associative pre-buffer of the given entry count (64-byte
// lines) without affecting cycle time. Per the paper, a 16-entry pre-buffer
// is pipelined into two stages at 0.09um and three stages at 0.045um; sizes
// within the one-cycle capacity need a single stage.
func PreBufferPipelineDepth(entries, lineSize int, t Tech) int {
	bytes := entries * lineSize
	oneCycle := OneCycleCapacity(t)
	if bytes <= oneCycle {
		return 1
	}
	switch t {
	case Tech90:
		if entries <= 16 {
			return 2
		}
		return 3
	case Tech45, Tech65:
		if entries <= 8 {
			return 2
		}
		if entries <= 16 {
			return 3
		}
		return 4
	default:
		return 1 + (bytes-1)/oneCycle/2
	}
}
