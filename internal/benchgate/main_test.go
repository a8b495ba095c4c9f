package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gatePairs is the number of pairs make bench-gate takes.
const gatePairs = 5

// point is one CoreGrid point of a fixture run.
type point struct {
	name          string // "<profile>/<engine>"
	cycles, insts float64
	// noskipCycles is the no-skip mode's cycles/run; 0 reports cycles.
	noskipCycles float64
	// ns is the skip mode's ns/cycle; the no-skip mode's is ns * speedup.
	ns, speedup float64
	// allocs is both modes' allocs/kcycle; a negative value leaves the
	// metric out.
	allocs float64
}

// fixture is one side's run in one pair. snapshot is the snapshot grid's
// cold/warm ns/op ratio; 0 leaves the grid out of the run.
type fixture struct {
	points   []point
	snapshot float64
}

func gateFixture() fixture {
	return fixture{
		points: []point{
			{name: "gcc/clgp", cycles: 10_000, insts: 1000, ns: 150, speedup: 2.1},
			{name: "mcf/clgp", cycles: 40_000, insts: 1000, ns: 60, speedup: 4.5},
		},
		snapshot: 1.8,
	}
}

// gateRuns returns gatePairs independent copies of the fixture: one side of
// the paired gate.
func gateRuns() []fixture {
	runs := make([]fixture, gatePairs)
	for i := range runs {
		runs[i] = gateFixture()
	}
	return runs
}

// files renders the run as make bench-gate records it: one file of
// `go test -bench` output per part (a CoreGrid profile, or the snapshot
// grid), each line carrying the GOMAXPROCS suffix procs.
func (f fixture) files(procs string) map[string]string {
	const header = "goos: linux\ngoarch: amd64\npkg: clgp/internal/core\ncpu: Intel(R) Xeon(R) Processor\n"
	parts := map[string]string{"snapshot": header}
	for _, p := range f.points {
		profile := p.name[:strings.Index(p.name, "/")]
		if _, ok := parts[profile]; !ok {
			parts[profile] = header
		}
		noskipCycles := p.noskipCycles
		if noskipCycles == 0 {
			noskipCycles = p.cycles
		}
		// An op is 4 cycles, so allocs/op is allocs/kcycle * 4/1000,
		// rounded down as the testing package prints it.
		allocsPerKCycle := ""
		if p.allocs >= 0 {
			allocsPerKCycle = fmt.Sprintf("\t         %.4f allocs/kcycle", p.allocs)
		}
		for _, mode := range []struct {
			name       string
			ns, cycles float64
		}{{"skip", p.ns, p.cycles}, {"noskip", p.ns * p.speedup, noskipCycles}} {
			parts[profile] += fmt.Sprintf("BenchmarkCoreGrid/%s/%s%s \t  400000\t       %.1f ns/op%s\t    %.0f cycles/run\t    %.0f insts/run\t       %.2f ns/cycle\t       %.1f ns/ticked-cycle\t         0.7500 skipped/cycle\t       0 B/op\t       %d allocs/op\n",
				p.name, mode.name, procs, 4*mode.ns, allocsPerKCycle, mode.cycles, p.insts, mode.ns, 4*mode.ns, int(max(p.allocs, 0)*4/1000))
		}
	}
	if f.snapshot > 0 {
		parts["snapshot"] += fmt.Sprintf("BenchmarkSnapshotGrid/cold%s \t      16\t  %.0f ns/op\nBenchmarkSnapshotGrid/warm%s \t      16\t  100000000 ns/op\n",
			procs, 1e8*f.snapshot, procs)
	}
	for part := range parts {
		parts[part] += "PASS\n"
	}
	return parts
}

// judge writes both sides' runs into a directory as make bench-gate names
// them, the parent at GOMAXPROCS 2 and the change at 1 (no suffix), and
// judges it.
func judge(t *testing.T, parent, change []fixture) []string {
	t.Helper()
	dir := t.TempDir()
	for _, side := range []struct {
		name, procs string
		runs        []fixture
	}{{"parent", "-2", parent}, {"change", "", change}} {
		for i, f := range side.runs {
			for part, text := range f.files(side.procs) {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.%s.txt", side.name, i+1, part))
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p, c, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out := format(p, c); !strings.Contains(out, "alternating pairs") {
		t.Fatalf("report has no footer:\n%s", out)
	}
	return gate(p, c)
}

func TestGatePassesOnIdenticalRuns(t *testing.T) {
	if bad := judge(t, gateRuns(), gateRuns()); len(bad) != 0 {
		t.Fatalf("identical runs should pass the gate, got %v", bad)
	}
}

func TestGateCatchesNsPerCycleRegression(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	for _, f := range change {
		f.points[0].ns *= 1.2 // +20% > 10% + 8ns at 150 ns/cycle
	}
	bad := judge(t, parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "gcc/clgp") {
		t.Fatalf("expected one gcc/clgp regression, got %v", bad)
	}
}

// TestGateJudgesCycleWeightedProfiles: the budget applies to a profile's
// total wall time over its total cycles, so a slower point counts by its
// share of the profile's cycles.
func TestGateJudgesCycleWeightedProfiles(t *testing.T) {
	withGccNone := func() []fixture {
		runs := gateRuns()
		for i := range runs {
			runs[i].points = append(runs[i].points, point{name: "gcc/none", cycles: 30_000, insts: 1000, ns: 150, speedup: 1.5})
		}
		return runs
	}
	parent, change := withGccNone(), withGccNone()
	for _, f := range change {
		f.points[0].ns *= 1.2 // gcc/clgp is a quarter of gcc's cycles: +5%
	}
	if bad := judge(t, parent, change); len(bad) != 0 {
		t.Fatalf("+20%% on a quarter of a profile's cycles should pass, got %v", bad)
	}
	for _, f := range change {
		f.points[2].ns *= 1.2
	}
	bad := judge(t, parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "gcc (gcc/clgp, gcc/none)") {
		t.Fatalf("expected one gcc regression naming its points, got %v", bad)
	}
}

// TestGateMedianAbsorbsOutlier: one slow change run is noise, not a
// regression; the median of the per-pair ratios ignores it.
func TestGateMedianAbsorbsOutlier(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	change[2].points[0].ns *= 1.3
	if bad := judge(t, parent, change); len(bad) != 0 {
		t.Fatalf("a +30%% outlier in 1 of %d change runs should pass, got %v", gatePairs, bad)
	}
}

// TestGateEnforcesInvariants: every within-run floor is judged on the
// change's median, so a breach in 1 of 5 runs passes and in 3 of 5 fails.
func TestGateEnforcesInvariants(t *testing.T) {
	breach := func(runs int, allocs float64) []string {
		parent, change := gateRuns(), gateRuns()
		for _, f := range change[:runs] {
			f.points[1].speedup = 1.2 // miss-heavy floor is higher
			f.points[0].speedup = 0.8 // slower than per-cycle
			// Allocating on the hot path, less than once per Step: the
			// run prints 0 allocs/op, and only allocs/kcycle shows it.
			f.points[0].allocs = allocs
		}
		return judge(t, parent, change)
	}
	if bad := breach(1, 12); len(bad) != 0 {
		t.Errorf("floors breached in 1 of %d runs should pass, got %v", gatePairs, bad)
	}
	bad := breach(3, 12)
	if len(bad) != 3 {
		t.Errorf("floors breached in 3 of %d runs: expected 3 violations, got %v", gatePairs, bad)
	}
	if !strings.Contains(strings.Join(bad, "\n"), "gcc/clgp: median 12.000 allocs/kcycle above 1") {
		t.Errorf("expected an allocs/kcycle violation on gcc/clgp, got %v", bad)
	}
	// Free-list growth in the timed Steps stays far below one allocation
	// per thousand cycles and passes.
	if bad := breach(gatePairs, 0.5); len(bad) != 2 || strings.Contains(strings.Join(bad, "\n"), "allocs") {
		t.Errorf("0.5 allocs/kcycle should pass the allocation floor, got %v", bad)
	}
}

// TestGateRejectsMismatchedInsts: a run of another length commits another
// count at every point, so every point is reported.
func TestGateRejectsMismatchedInsts(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	for i := range change[3].points {
		change[3].points[i].insts /= 2
	}
	bad := judge(t, parent, change)
	if len(bad) != 2 || !strings.Contains(bad[0], "gcc/clgp: committed") || !strings.Contains(bad[1], "mcf/clgp: committed") {
		t.Fatalf("expected a committed-count violation on both points, got %v", bad)
	}
}

func TestGateRejectsMismatchedCommitted(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	change[1].points[1].insts--
	bad := judge(t, parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "mcf/clgp") || !strings.Contains(bad[0], "committed") {
		t.Fatalf("expected a committed-count violation on mcf/clgp, got %v", bad)
	}
	// A record that timed nothing cannot be compared either.
	parent, change = gateRuns(), gateRuns()
	parent[2].points[0].cycles = 0
	bad = judge(t, parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "gcc/clgp: a run measured no cycles") {
		t.Fatalf("expected an empty-measurement violation on gcc/clgp, got %v", bad)
	}
	// Nor can one without allocs/kcycle: its allocation floor is unknown.
	parent, change = gateRuns(), gateRuns()
	parent[1].points[1].allocs = -1
	bad = judge(t, parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "mcf/clgp: a run reported no allocs/kcycle") {
		t.Fatalf("expected a missing-allocs/kcycle violation on mcf/clgp, got %v", bad)
	}
}

// TestGateRejectsSkipCycleMismatch: both modes of a point simulate the same
// run, so a no-skip cycles/run that differs from the skip one in any run
// breaks the skip-equivalence contract.
func TestGateRejectsSkipCycleMismatch(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	change[1].points[0].noskipCycles = change[1].points[0].cycles + 1
	bad := judge(t, parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "gcc/clgp: skip path simulated 10000 cycles, no-skip 10001: equivalence broken") {
		t.Fatalf("expected a skip-equivalence violation on gcc/clgp, got %v", bad)
	}
}

func TestGateFlagsMissingGridPoints(t *testing.T) {
	for _, side := range []string{"parent", "change"} {
		parent, change := gateRuns(), gateRuns()
		runs := change
		if side == "parent" {
			runs = parent
		}
		runs[0].points = runs[0].points[:1]
		bad := judge(t, parent, change)
		if len(bad) != 1 || !strings.Contains(bad[0], "mcf/clgp") {
			t.Errorf("point missing from a %s run: expected one mcf/clgp violation, got %v", side, bad)
		}
	}
	// A point only the change measures is reported too.
	parent, change := gateRuns(), gateRuns()
	for i := range change {
		change[i].points = append(change[i].points, point{name: "gzip/clgp", cycles: 5000, insts: 1000, ns: 100, speedup: 1.5})
	}
	bad := judge(t, parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "gzip/clgp: measured in 0/5 parent") {
		t.Errorf("expected the change-only point reported, got %v", bad)
	}
	// A parent that has neither grid (a build from before the benchmarks
	// existed) lists every point, and the snapshot grid, as missing.
	parent = make([]fixture, gatePairs)
	bad = judge(t, parent, gateRuns())
	want := []string{"SnapshotGrid: measured in 0/5 parent", "gcc/clgp: measured in 0/5 parent", "mcf/clgp: measured in 0/5 parent"}
	if len(bad) != len(want) {
		t.Fatalf("parent without the grids: expected %d violations, got %v", len(want), bad)
	}
	for i, w := range want {
		if !strings.HasPrefix(bad[i], w) {
			t.Errorf("parent without the grids: violation %d is %q, want %q...", i, bad[i], w)
		}
	}
}

// TestGateFlagsFailedRuns: a run whose benchmark failed (b.Fatal on an
// engine error) or exited non-zero is reported with the lines it printed,
// beside the points it could not measure.
func TestGateFlagsFailedRuns(t *testing.T) {
	dir := t.TempDir()
	for _, side := range []string{"parent", "change"} {
		for i, f := range gateRuns() {
			for part, text := range f.files("-2") {
				if side == "change" && i == 1 && part == "gcc" {
					text = "--- FAIL: BenchmarkCoreGrid/gcc/clgp/skip\n    engine_bench_test.go:1: trace exhausted before commit\nFAIL\nFAIL: exit status 1\n"
				}
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.%s.txt", side, i+1, part))
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	parent, change, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Join(gate(parent, change), "\n")
	for _, want := range []string{
		"change-2.gcc.txt: --- FAIL: BenchmarkCoreGrid/gcc/clgp/skip",
		"change-2.gcc.txt: FAIL: exit status 1",
		"gcc/clgp: measured in 5/5 parent and 4/5 change runs",
	} {
		if !strings.Contains(bad, want) {
			t.Errorf("violations lack %q:\n%s", want, bad)
		}
	}
}

func TestGateEnforcesSnapshotFloor(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	for i := range change[:3] {
		change[i].snapshot = 1.05
	}
	bad := judge(t, parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "SnapshotGrid: median warm-restore speedup 1.05x") {
		t.Fatalf("expected one snapshot-floor violation, got %v", bad)
	}

	// Dropping the measurement from one run of either side must fail.
	runs := gateRuns()
	runs[4].snapshot = 0
	bad = judge(t, runs, gateRuns())
	if len(bad) != 1 || !strings.Contains(bad[0], "SnapshotGrid: measured in 4/5 parent") {
		t.Errorf("expected a missing-SnapshotGrid violation on the parent side, got %v", bad)
	}
	bad = judge(t, gateRuns(), runs)
	if len(bad) != 1 || !strings.Contains(bad[0], "and 4/5 change") {
		t.Errorf("expected a missing-SnapshotGrid violation on the change side, got %v", bad)
	}
}
