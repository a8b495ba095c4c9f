package cacti

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTechString(t *testing.T) {
	cases := map[Tech]string{
		Tech180: "0.18um",
		Tech130: "0.13um",
		Tech90:  "0.09um",
		Tech65:  "0.065um",
		Tech45:  "0.045um",
	}
	for tech, want := range cases {
		if got := tech.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", tech, got, want)
		}
		if !tech.Valid() {
			t.Errorf("%v should be valid", tech)
		}
	}
	if Tech(99).Valid() {
		t.Errorf("Tech(99) should be invalid")
	}
	if got := Tech(99).String(); got != "tech(99)" {
		t.Errorf("unknown tech string = %q", got)
	}
}

func TestRoadmapTable1(t *testing.T) {
	rm := Roadmap()
	if len(rm) != 5 {
		t.Fatalf("roadmap has %d entries, want 5", len(rm))
	}
	// Spot-check against Table 1 of the paper.
	want := []struct {
		year  int
		clock float64
		cycle float64
	}{
		{1999, 0.5, 2},
		{2001, 1.7, 0.59},
		{2004, 4, 0.25},
		{2007, 6.7, 0.15},
		{2010, 11.5, 0.087},
	}
	for i, w := range want {
		if rm[i].Year != w.year || rm[i].ClockGHz != w.clock || rm[i].CycleNS != w.cycle {
			t.Errorf("roadmap[%d] = %+v, want %+v", i, rm[i], w)
		}
	}
	// Cycle time must be consistent with clock frequency (1/f), within
	// roadmap rounding.
	for _, e := range rm {
		approx := 1.0 / e.ClockGHz
		if math.Abs(approx-e.CycleNS)/e.CycleNS > 0.05 {
			t.Errorf("%v: cycle %.3fns inconsistent with clock %.2fGHz", e.Tech, e.CycleNS, e.ClockGHz)
		}
	}
}

func TestRoadmapFor(t *testing.T) {
	e, err := RoadmapFor(Tech45)
	if err != nil || e.Year != 2010 {
		t.Errorf("RoadmapFor(Tech45) = %+v, %v", e, err)
	}
	if _, err := RoadmapFor(Tech(42)); err == nil {
		t.Errorf("RoadmapFor(bogus) should error")
	}
	if !math.IsNaN(CycleTimeNS(Tech(42))) {
		t.Errorf("CycleTimeNS(bogus) should be NaN")
	}
	if CycleTimeNS(Tech90) != 0.25 {
		t.Errorf("CycleTimeNS(Tech90) = %v", CycleTimeNS(Tech90))
	}
}

// TestTable3Latencies checks every cell of Table 3 of the paper.
func TestTable3Latencies(t *testing.T) {
	want90 := map[int]int{
		256: 1, 512: 1, 1 << 10: 2, 2 << 10: 2, 4 << 10: 3,
		8 << 10: 3, 16 << 10: 3, 32 << 10: 3, 64 << 10: 3, 1 << 20: 17,
	}
	want45 := map[int]int{
		256: 1, 512: 2, 1 << 10: 3, 2 << 10: 4, 4 << 10: 4,
		8 << 10: 4, 16 << 10: 4, 32 << 10: 4, 64 << 10: 5, 1 << 20: 24,
	}
	for size, want := range want90 {
		if got := CacheLatency(size, Tech90); got != want {
			t.Errorf("CacheLatency(%d, 90nm) = %d, want %d", size, got, want)
		}
	}
	for size, want := range want45 {
		if got := CacheLatency(size, Tech45); got != want {
			t.Errorf("CacheLatency(%d, 45nm) = %d, want %d", size, got, want)
		}
	}
	if L2Latency(Tech90) != 17 || L2Latency(Tech45) != 24 {
		t.Errorf("L2 latency = %d / %d, want 17 / 24", L2Latency(Tech90), L2Latency(Tech45))
	}
	if MemoryLatency() != 200 {
		t.Errorf("MemoryLatency = %d, want 200", MemoryLatency())
	}
}

func TestTable3SizesAndL1Sizes(t *testing.T) {
	sizes := Table3Sizes()
	if len(sizes) != 10 {
		t.Fatalf("Table3Sizes has %d entries, want 10", len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Errorf("Table3Sizes not ascending at %d", i)
		}
	}
	l1 := L1Sizes()
	if len(l1) != 9 || l1[0] != 256 || l1[len(l1)-1] != 64<<10 {
		t.Errorf("L1Sizes = %v", l1)
	}
	for _, s := range l1 {
		if s >= 1<<20 {
			t.Errorf("L1 size %d should be below the L2 size", s)
		}
	}
}

// TestLatencyMonotonic checks the physical invariant that latency never
// decreases with cache size, and never decreases when moving to a finer
// process (relative to the much faster clock).
func TestLatencyMonotonic(t *testing.T) {
	for _, tech := range []Tech{Tech90, Tech45} {
		prev := 0
		for _, s := range Table3Sizes() {
			lat := CacheLatency(s, tech)
			if lat < prev {
				t.Errorf("%v: latency decreases at size %d (%d < %d)", tech, s, lat, prev)
			}
			prev = lat
		}
	}
	for _, s := range Table3Sizes() {
		if CacheLatency(s, Tech45) < CacheLatency(s, Tech90) {
			t.Errorf("size %d: 45nm latency < 90nm latency", s)
		}
	}
}

func TestAnalyticalLatencyProperties(t *testing.T) {
	// Analytical model must be >= 1 cycle and monotonic in size.
	f := func(rawSize uint32) bool {
		size := int(rawSize%(1<<21)) + 64
		for _, tech := range []Tech{Tech180, Tech130, Tech90, Tech65, Tech45} {
			l := AnalyticalLatency(size, tech)
			l2 := AnalyticalLatency(size*2, tech)
			if l < 1 || l2 < l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Unknown tech falls back to 1 cycle rather than panicking.
	if AnalyticalLatency(4096, Tech(77)) != 1 {
		t.Errorf("AnalyticalLatency with bogus tech should be 1")
	}
	// A size absent from Table 3 uses the analytical model.
	if got := CacheLatency(3000, Tech90); got < 1 {
		t.Errorf("CacheLatency fallback = %d", got)
	}
}

func TestOneCycleCapacity(t *testing.T) {
	if OneCycleCapacity(Tech90) != 512 {
		t.Errorf("OneCycleCapacity(90nm) = %d, want 512", OneCycleCapacity(Tech90))
	}
	if OneCycleCapacity(Tech45) != 256 {
		t.Errorf("OneCycleCapacity(45nm) = %d, want 256", OneCycleCapacity(Tech45))
	}
	if OneCycleCapacity(Tech180) < OneCycleCapacity(Tech90) {
		t.Errorf("coarser process should fit at least as much in one cycle")
	}
	if OneCycleCapacity(Tech(42)) != 256 {
		t.Errorf("unknown tech should use the conservative 256B default")
	}
	// The one-cycle capacity must indeed be a 1-cycle structure per Table 3.
	if CacheLatency(OneCycleCapacity(Tech90), Tech90) != 1 {
		t.Errorf("one-cycle capacity at 90nm is not 1 cycle in Table 3")
	}
	if CacheLatency(OneCycleCapacity(Tech45), Tech45) != 1 {
		t.Errorf("one-cycle capacity at 45nm is not 1 cycle in Table 3")
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
	for _, tech := range []Tech{Tech90, Tech45, Tech180} {
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
