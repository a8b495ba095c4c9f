package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSourceString(t *testing.T) {
	want := map[Source]string{
		SrcPreBuffer: "PB",
		SrcL0:        "il0",
		SrcL1:        "il1",
		SrcL2:        "ul2",
		SrcMem:       "Mem",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if got := Source(42).String(); got != "source(42)" {
		t.Errorf("unknown source = %q", got)
	}
}

func TestDistribution(t *testing.T) {
	var d Distribution
	if d.Total() != 0 || d.Fraction(SrcL1) != 0 {
		t.Errorf("empty distribution should be all zero")
	}
	d.Add(SrcPreBuffer, 86)
	d.Add(SrcL1, 10)
	d.Add(SrcL2, 3)
	d.Add(SrcMem, 1)
	if d.Total() != 100 {
		t.Fatalf("Total = %d", d.Total())
	}
	if d.Fraction(SrcPreBuffer) != 0.86 {
		t.Errorf("Fraction(PB) = %v", d.Fraction(SrcPreBuffer))
	}
	fr := d.Fractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v", sum)
	}
	var e Distribution
	e.Add(SrcL0, 50)
	d.Merge(e)
	if d.Total() != 150 || d[SrcL0] != 50 {
		t.Errorf("Merge wrong: %+v", d)
	}
	var empty Distribution
	if got := empty.Fractions(); got != [NumSources]float64{} {
		t.Errorf("empty Fractions = %v", got)
	}
}

func TestResultsDerivedMetrics(t *testing.T) {
	r := &Results{
		Name:           "test",
		Cycles:         1000,
		Committed:      1500,
		Branches:       100,
		Mispredictions: 7,
		L1Accesses:     200,
		L1Misses:       20,
		L0Accesses:     400,
		L0Misses:       100,
		DCacheAccesses: 300,
		DCacheMisses:   30,
	}
	r.FetchSources.Add(SrcPreBuffer, 800)
	r.FetchSources.Add(SrcL0, 100)
	r.FetchSources.Add(SrcL1, 100)
	r.PrefetchesIssued = 50
	r.PrefetchesUseful = 40

	if r.IPC() != 1.5 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.BranchMispredRate() != 0.07 {
		t.Errorf("mispred rate = %v", r.BranchMispredRate())
	}
	if r.L1MissRate() != 0.1 || r.L0MissRate() != 0.25 || r.DCacheMissRate() != 0.1 {
		t.Errorf("miss rates wrong: %v %v %v", r.L1MissRate(), r.L0MissRate(), r.DCacheMissRate())
	}
	if r.PrefetchUsefulness() != 0.8 {
		t.Errorf("usefulness = %v", r.PrefetchUsefulness())
	}
	if r.OneCycleFetchFraction() != 0.9 {
		t.Errorf("one-cycle fetch fraction = %v", r.OneCycleFetchFraction())
	}
	// Zero denominators should not panic or produce NaN.
	z := &Results{}
	if z.IPC() != 0 || z.BranchMispredRate() != 0 || z.L1MissRate() != 0 ||
		z.OneCycleFetchFraction() != 0 || z.PrefetchUsefulness() != 0 {
		t.Errorf("zero results should yield zero metrics")
	}
}

func TestResultsMerge(t *testing.T) {
	a := &Results{Cycles: 100, Committed: 150, Branches: 10, Mispredictions: 1, L1Accesses: 5}
	a.FetchSources.Add(SrcPreBuffer, 10)
	b := &Results{Cycles: 50, Committed: 30, Branches: 5, Mispredictions: 2, L1Accesses: 7}
	b.FetchSources.Add(SrcL1, 3)
	a.Merge(b)
	if a.Cycles != 150 || a.Committed != 180 || a.Branches != 15 || a.Mispredictions != 3 || a.L1Accesses != 12 {
		t.Errorf("merge counters wrong: %+v", a)
	}
	if a.FetchSources[SrcPreBuffer] != 10 || a.FetchSources[SrcL1] != 3 {
		t.Errorf("merge distributions wrong: %+v", a.FetchSources)
	}
}

func TestHarmonicAndGeometricMean(t *testing.T) {
	xs := []float64{1, 2, 4}
	hm := HarmonicMean(xs)
	want := 3.0 / (1 + 0.5 + 0.25)
	if math.Abs(hm-want) > 1e-12 {
		t.Errorf("HarmonicMean = %v, want %v", hm, want)
	}
	if HarmonicMean(nil) != 0 {
		t.Errorf("empty mean should be 0")
	}
	if HarmonicMean([]float64{1, 0}) != 0 || HarmonicMean([]float64{1, -1}) != 0 {
		t.Errorf("non-positive values should give 0")
	}
}

func TestMeanInequalityProperty(t *testing.T) {
	// For positive inputs: harmonic mean <= arithmetic mean <= max.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		xs := make([]float64, len(raw))
		maxV, sum := 0.0, 0.0
		for i, r := range raw {
			xs[i] = float64(r%1000)/100 + 0.01
			maxV = max(maxV, xs[i])
			sum += xs[i]
		}
		hm := HarmonicMean(xs)
		am := sum / float64(len(xs))
		return hm <= am+1e-9 && am <= maxV+1e-9 && hm > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSummaryAndFormatDistribution(t *testing.T) {
	r := &Results{Name: "gzip/CLGP", Cycles: 10, Committed: 15}
	r.FetchSources.Add(SrcPreBuffer, 9)
	r.FetchSources.Add(SrcL1, 1)
	s := r.Summary()
	for _, want := range []string{"gzip/CLGP", "IPC", "1.5000", "PB 90.0%", "il1 10.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
	var empty Distribution
	if FormatDistribution(empty) != "(none)" {
		t.Errorf("empty distribution format = %q", FormatDistribution(empty))
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"size", "IPC"}}
	tb.AddRow("256B", "0.91")
	tb.AddRow("64KB", "1.32")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "size") || !strings.Contains(lines[0], "IPC") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator missing: %q", lines[1])
	}
	if !strings.Contains(lines[3], "64KB") || !strings.Contains(lines[3], "1.32") {
		t.Errorf("row content wrong: %q", lines[3])
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "CLGP + L0"}
	s.Add(256, 1.0)
	s.Add(4096, 1.2)
	if s.YAt(256) != 1.0 || s.YAt(4096) != 1.2 {
		t.Errorf("YAt wrong")
	}
	if !math.IsNaN(s.YAt(12345)) {
		t.Errorf("missing x should be NaN")
	}
}

func TestSeriesSet(t *testing.T) {
	ss := &SeriesSet{Title: "Figure 5(a)", XLabel: "L1 size", YLabel: "IPC"}
	a := &Series{Name: "base"}
	a.Add(256, 0.5)
	a.Add(512, 0.6)
	b := &Series{Name: "CLGP"}
	b.Add(256, 1.0)
	ss.Series = append(ss.Series, a, b)

	if ss.Find("CLGP") != b || ss.Find("nope") != nil {
		t.Errorf("Find wrong")
	}
	tbl := ss.Table(FormatBytes)
	out := tbl.String()
	if !strings.Contains(out, "256B") || !strings.Contains(out, "512B") {
		t.Errorf("x labels missing:\n%s", out)
	}
	if !strings.Contains(out, "0.5000") || !strings.Contains(out, "1.0000") {
		t.Errorf("y values missing:\n%s", out)
	}
	// The CLGP column should have a "-" for the 512B row.
	lines := strings.Split(out, "\n")
	found := false
	for _, l := range lines {
		if strings.Contains(l, "512B") && strings.Contains(l, "-") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing value should render as '-':\n%s", out)
	}
	// Default x format.
	if ss.Table(nil).String() == "" {
		t.Errorf("default table empty")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		256:        "256B",
		512:        "512B",
		1024:       "1KB",
		4096:       "4KB",
		65536:      "64KB",
		1 << 20:    "1MB",
		2.5 * 1024: "2.5KB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%v) = %q, want %q", in, got, want)
		}
	}
}
