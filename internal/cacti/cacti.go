// Package cacti holds the technology data the paper takes from CACTI 3.0
// (Shivakumar & Jouppi, "CACTI 3.0: An Integrated Cache Timing, Power, and
// Area Model", WRL Research Report 2001/2) for its two process nodes,
// 0.09um and 0.045um:
//
//   - Table 3: the L1 I-cache latency, in cycles, of each swept L1 size, and
//     the latency of the 1MB unified L2;
//   - the largest fully-associative buffer accessible in one cycle (the
//     size of the pre-buffers and the L0), and the pipeline depth of a
//     larger pre-buffer.
//
// Nothing here is extrapolated: a node or an L1 size the paper does not
// publish is an error.
package cacti

import (
	"fmt"
	"slices"
)

// Tech identifies one of the paper's two technology process nodes. The
// values are fixed: configuration keys hash int(Tech).
type Tech int

const (
	// Tech90 is the 0.09um process (2004) — the paper's "current" node.
	Tech90 Tech = 2
	// Tech45 is the 0.045um process (2010) — the paper's "far future" node.
	Tech45 Tech = 4
)

// String returns the conventional name of the node.
func (t Tech) String() string {
	switch t {
	case Tech90:
		return "0.09um"
	case Tech45:
		return "0.045um"
	default:
		return fmt.Sprintf("tech(%d)", int(t))
	}
}

// ParseTech maps a node name to a Tech. It accepts the conventional name
// ("0.09um"), the feature size in nanometres ("90"), and the micron form
// without suffix ("0.09"), so it round-trips Tech.String and the short CLI
// spellings.
func ParseTech(s string) (Tech, error) {
	switch s {
	case "90", "0.09", "0.09um":
		return Tech90, nil
	case "45", "0.045", "0.045um":
		return Tech45, nil
	}
	return 0, fmt.Errorf("cacti: unknown technology node %q (the paper's nodes: 90, 45)", s)
}

// L1Sizes returns the L1 I-cache sizes of Table 3, which the paper's
// figures sweep (256B .. 64KB), ascending.
func L1Sizes() []int {
	return []int{256, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
}

// table3 holds Table 3 of the paper per node: the latency in cycles of an
// L1 I-cache of each L1Sizes entry, in that order, and of the 1MB L2.
var table3 = map[Tech]struct {
	l1 []int
	l2 int
}{
	Tech90: {l1: []int{1, 1, 2, 2, 3, 3, 3, 3, 3}, l2: 17},
	Tech45: {l1: []int{1, 2, 3, 4, 4, 4, 4, 4, 5}, l2: 24},
}

// CacheLatency returns Table 3's access latency in cycles of an L1 I-cache
// of the given size at node t. A node or a size the table does not list is
// an error that names it.
func CacheLatency(sizeBytes int, t Tech) (int, error) {
	row, ok := table3[t]
	if !ok {
		return 0, fmt.Errorf("cacti: unknown technology node %v (the paper's nodes: %v, %v)", t, Tech90, Tech45)
	}
	i := slices.Index(L1Sizes(), sizeBytes)
	if i < 0 {
		return 0, fmt.Errorf("cacti: Table 3 lists no %d B L1 I-cache (sizes %v)", sizeBytes, L1Sizes())
	}
	return row.l1[i], nil
}

// L2Latency returns the latency in cycles of the paper's 1MB unified L2
// cache at node t (17 cycles at 0.09um, 24 cycles at 0.045um).
func L2Latency(t Tech) int { return table3[t].l2 }

// MemoryLatency returns the main memory latency in cycles (Table 2: 200).
func MemoryLatency() int { return 200 }

// OneCycleCapacity returns the largest fully-associative buffer size in
// bytes that can be accessed in a single cycle at node t. The paper (using
// CACTI 3.0) determines 512 bytes at 0.09um and 256 bytes at 0.045um; these
// are the values used to size both the pre-buffers and the L0 cache.
func OneCycleCapacity(t Tech) int {
	if t == Tech90 {
		return 512
	}
	return 256
}

// PreBufferPipelineDepth returns the number of pipeline stages needed to
// access a fully-associative pre-buffer of the given entry count (64-byte
// lines) without affecting cycle time. Per the paper, a 16-entry pre-buffer
// is pipelined into two stages at 0.09um and three stages at 0.045um; sizes
// within the one-cycle capacity need a single stage.
func PreBufferPipelineDepth(entries, lineSize int, t Tech) int {
	switch {
	case entries*lineSize <= OneCycleCapacity(t):
		return 1
	case t == Tech90:
		if entries <= 16 {
			return 2
		}
		return 3
	case entries <= 8:
		return 2
	case entries <= 16:
		return 3
	default:
		return 4
	}
}
