package cacti

import (
	"strings"
	"testing"
)

func TestTechString(t *testing.T) {
	cases := map[Tech]string{
		Tech90: "0.09um",
		Tech45: "0.045um",
	}
	for tech, want := range cases {
		if got := tech.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", tech, got, want)
		}
	}
	// The values are hashed into configuration keys; they must not move.
	if Tech90 != 2 || Tech45 != 4 {
		t.Errorf("Tech90, Tech45 = %d, %d; want 2, 4", Tech90, Tech45)
	}
	if got := Tech(99).String(); got != "tech(99)" {
		t.Errorf("unknown tech string = %q", got)
	}
}

// TestParseTech: each node has three spellings, and a node the paper does
// not evaluate is rejected by name.
func TestParseTech(t *testing.T) {
	for s, want := range map[string]Tech{
		"90": Tech90, "0.09": Tech90, "0.09um": Tech90,
		"45": Tech45, "0.045": Tech45, "0.045um": Tech45,
	} {
		if got, err := ParseTech(s); err != nil || got != want {
			t.Errorf("ParseTech(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"180", "130", "65", "0.065um", ""} {
		_, err := ParseTech(s)
		if err == nil {
			t.Errorf("ParseTech(%q) accepted a node the paper does not evaluate", s)
		} else if !strings.Contains(err.Error(), "90, 45") {
			t.Errorf("ParseTech(%q) error %q does not name the paper's nodes", s, err)
		}
	}
}

// TestTable3Latencies checks every cell of Table 3 of the paper.
func TestTable3Latencies(t *testing.T) {
	want90 := map[int]int{
		256: 1, 512: 1, 1 << 10: 2, 2 << 10: 2, 4 << 10: 3,
		8 << 10: 3, 16 << 10: 3, 32 << 10: 3, 64 << 10: 3,
	}
	want45 := map[int]int{
		256: 1, 512: 2, 1 << 10: 3, 2 << 10: 4, 4 << 10: 4,
		8 << 10: 4, 16 << 10: 4, 32 << 10: 4, 64 << 10: 5,
	}
	for tech, want := range map[Tech]map[int]int{Tech90: want90, Tech45: want45} {
		for size, lat := range want {
			if got, err := CacheLatency(size, tech); err != nil || got != lat {
				t.Errorf("CacheLatency(%d, %v) = %d, %v; want %d", size, tech, got, err, lat)
			}
		}
	}
	if L2Latency(Tech90) != 17 || L2Latency(Tech45) != 24 {
		t.Errorf("L2 latency = %d / %d, want 17 / 24", L2Latency(Tech90), L2Latency(Tech45))
	}
	if MemoryLatency() != 200 {
		t.Errorf("MemoryLatency = %d, want 200", MemoryLatency())
	}
}

// TestCacheLatencyRejects: a size or node outside Table 3 is an error that
// names it, never an invented latency.
func TestCacheLatencyRejects(t *testing.T) {
	for _, tc := range []struct {
		size int
		tech Tech
		name string
	}{
		{128, Tech90, "128 B"},
		{3000, Tech90, "3000 B"},
		{128 << 10, Tech45, "131072 B"},
		{1 << 20, Tech90, "1048576 B"},
		{0, Tech45, "0 B"},
		{2 << 10, Tech(0), "tech(0)"},
		{2 << 10, Tech(1), "tech(1)"},
		{2 << 10, Tech(3), "tech(3)"},
		{2 << 10, Tech(5), "tech(5)"},
	} {
		lat, err := CacheLatency(tc.size, tc.tech)
		if err == nil {
			t.Errorf("CacheLatency(%d, %v) = %d, want an error", tc.size, tc.tech, lat)
		} else if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("CacheLatency(%d, %v) error %q does not name %q", tc.size, tc.tech, err, tc.name)
		}
	}
}

func TestTable3SizesAndL1Sizes(t *testing.T) {
	l1 := L1Sizes()
	if len(l1) != 9 || l1[0] != 256 || l1[len(l1)-1] != 64<<10 {
		t.Errorf("L1Sizes = %v", l1)
	}
	for i := 1; i < len(l1); i++ {
		if l1[i] != 2*l1[i-1] {
			t.Errorf("L1Sizes not doubling at %d: %v", i, l1)
		}
	}
	for tech, row := range table3 {
		if len(row.l1) != len(l1) {
			t.Errorf("%v: Table 3 row has %d L1 latencies for %d sizes", tech, len(row.l1), len(l1))
		}
	}
}

// TestLatencyMonotonic checks the physical invariant that latency never
// decreases with cache size, and never decreases when moving to a finer
// process (relative to the much faster clock).
func TestLatencyMonotonic(t *testing.T) {
	for _, tech := range []Tech{Tech90, Tech45} {
		prev := 0
		for _, s := range L1Sizes() {
			lat, _ := CacheLatency(s, tech)
			if lat < prev {
				t.Errorf("%v: latency decreases at size %d (%d < %d)", tech, s, lat, prev)
			}
			prev = lat
		}
		if L2Latency(tech) < prev {
			t.Errorf("%v: L2 latency %d below the largest L1's %d", tech, L2Latency(tech), prev)
		}
	}
	for _, s := range L1Sizes() {
		l90, _ := CacheLatency(s, Tech90)
		l45, _ := CacheLatency(s, Tech45)
		if l45 < l90 {
			t.Errorf("size %d: 45nm latency < 90nm latency", s)
		}
	}
}

func TestOneCycleCapacity(t *testing.T) {
	if OneCycleCapacity(Tech90) != 512 {
		t.Errorf("OneCycleCapacity(90nm) = %d, want 512", OneCycleCapacity(Tech90))
	}
	if OneCycleCapacity(Tech45) != 256 {
		t.Errorf("OneCycleCapacity(45nm) = %d, want 256", OneCycleCapacity(Tech45))
	}
	// The one-cycle capacity must indeed be a 1-cycle structure per Table 3.
	for _, tech := range []Tech{Tech90, Tech45} {
		if lat, err := CacheLatency(OneCycleCapacity(tech), tech); err != nil || lat != 1 {
			t.Errorf("one-cycle capacity at %v is %d cycles in Table 3 (%v)", tech, lat, err)
		}
	}
}

func TestPreBufferPipelineDepth(t *testing.T) {
	const lineSize = 64
	// Paper: 16-entry pre-buffer pipelined into 2 stages at 90nm and 3 at 45nm.
	if got := PreBufferPipelineDepth(16, lineSize, Tech90); got != 2 {
		t.Errorf("16-entry at 90nm = %d stages, want 2", got)
	}
	if got := PreBufferPipelineDepth(16, lineSize, Tech45); got != 3 {
		t.Errorf("16-entry at 45nm = %d stages, want 3", got)
	}
	// Paper: 8 entries (512B) fit in one cycle at 90nm, 4 entries (256B) at 45nm.
	if got := PreBufferPipelineDepth(8, lineSize, Tech90); got != 1 {
		t.Errorf("8-entry at 90nm = %d stages, want 1", got)
	}
	if got := PreBufferPipelineDepth(4, lineSize, Tech45); got != 1 {
		t.Errorf("4-entry at 45nm = %d stages, want 1", got)
	}
	if got := PreBufferPipelineDepth(8, lineSize, Tech45); got != 2 {
		t.Errorf("8-entry at 45nm = %d stages, want 2", got)
	}
	// Depth must be monotonic in entries.
	for _, tech := range []Tech{Tech90, Tech45} {
		prev := 0
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
			d := PreBufferPipelineDepth(n, lineSize, tech)
			if d < 1 || d < prev {
				t.Errorf("%v: depth(%d entries) = %d not monotonic/positive", tech, n, d)
			}
			prev = d
		}
	}
}
