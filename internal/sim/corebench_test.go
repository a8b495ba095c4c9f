package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clgp/internal/core"
)

func gateFixture() *CoreBench {
	return &CoreBench{
		Insts: 1000,
		Records: []CoreBenchRecord{
			{Name: "gcc/clgp", Profile: "gcc", Engine: "clgp", Committed: 1000, Cycles: 10_000, NsPerCycle: 150, SpeedupVsNoSkip: 2.1, AllocsPerKCycle: 0.01},
			{Name: "mcf/clgp", Profile: "mcf", Engine: "clgp", Committed: 1000, Cycles: 40_000, NsPerCycle: 60, SpeedupVsNoSkip: 4.5, AllocsPerKCycle: 0.01},
		},
		GridSnapshot: &GridSnapshotRecord{Profile: "gcc", Points: 8, SpeedupVsCold: 1.8},
	}
}

// gateRuns returns GatePairs independent copies of the fixture: one side of
// the paired gate.
func gateRuns() []*CoreBench {
	runs := make([]*CoreBench, GatePairs)
	for i := range runs {
		cb := gateFixture()
		cb.Records = append([]CoreBenchRecord(nil), cb.Records...)
		runs[i] = cb
	}
	return runs
}

func TestGatePassesOnIdenticalRuns(t *testing.T) {
	if bad := Gate(gateRuns(), gateRuns()); len(bad) != 0 {
		t.Fatalf("identical runs should pass the gate, got %v", bad)
	}
}

func TestGateCatchesNsPerCycleRegression(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	for _, cb := range change {
		cb.Records[0].NsPerCycle *= 1.2 // +20% > 10% + 8ns at 150 ns/cycle
	}
	bad := Gate(parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "gcc/clgp") {
		t.Fatalf("expected one gcc/clgp regression, got %v", bad)
	}
}

// TestGateJudgesCycleWeightedProfiles: the budget applies to a profile's
// total wall time over its total cycles, so a slower point counts by its
// share of the profile's cycles.
func TestGateJudgesCycleWeightedProfiles(t *testing.T) {
	withGccNone := func() []*CoreBench {
		runs := gateRuns()
		for _, cb := range runs {
			cb.Records = append(cb.Records, CoreBenchRecord{Name: "gcc/none", Profile: "gcc", Engine: "none",
				Committed: 1000, Cycles: 30_000, NsPerCycle: 150, SpeedupVsNoSkip: 1.5})
		}
		return runs
	}
	parent, change := withGccNone(), withGccNone()
	for _, cb := range change {
		cb.Records[0].NsPerCycle *= 1.2 // gcc/clgp is a quarter of gcc's cycles: +5%
	}
	if bad := Gate(parent, change); len(bad) != 0 {
		t.Fatalf("+20%% on a quarter of a profile's cycles should pass, got %v", bad)
	}
	for _, cb := range change {
		cb.Records[2].NsPerCycle *= 1.2
	}
	bad := Gate(parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "gcc (gcc/clgp, gcc/none)") {
		t.Fatalf("expected one gcc regression naming its points, got %v", bad)
	}
}

// TestGateMedianAbsorbsOutlier: one slow change run is noise, not a
// regression; the median of the per-pair ratios ignores it.
func TestGateMedianAbsorbsOutlier(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	change[2].Records[0].NsPerCycle *= 1.3
	if bad := Gate(parent, change); len(bad) != 0 {
		t.Fatalf("a +30%% outlier in 1 of %d change runs should pass, got %v", GatePairs, bad)
	}
}

// TestGateEnforcesInvariants: every within-run floor is judged on the
// change's median, so a breach in 1 of 5 runs passes and in 3 of 5 fails.
func TestGateEnforcesInvariants(t *testing.T) {
	breach := func(runs int) []string {
		parent, change := gateRuns(), gateRuns()
		for _, cb := range change[:runs] {
			cb.Records[1].SpeedupVsNoSkip = 1.2  // miss-heavy floor is higher
			cb.Records[0].SpeedupVsNoSkip = 0.8  // slower than per-cycle
			cb.Records[0].AllocsPerKCycle = 12.0 // allocating on the hot path
		}
		return Gate(parent, change)
	}
	if bad := breach(1); len(bad) != 0 {
		t.Errorf("floors breached in 1 of %d runs should pass, got %v", GatePairs, bad)
	}
	if bad := breach(3); len(bad) != 3 {
		t.Errorf("floors breached in 3 of %d runs: expected 3 violations, got %v", GatePairs, bad)
	}
}

func TestGateRejectsMismatchedInsts(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	change[3].Insts = parent[0].Insts / 2
	bad := Gate(parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "pair 4") {
		t.Fatalf("expected an insts-mismatch violation naming pair 4, got %v", bad)
	}
}

func TestGateRejectsMismatchedCommitted(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	change[1].Records[1].Committed--
	bad := Gate(parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "mcf/clgp") || !strings.Contains(bad[0], "committed") {
		t.Fatalf("expected a committed-count violation on mcf/clgp, got %v", bad)
	}
	// A record that timed nothing cannot be compared either.
	parent, change = gateRuns(), gateRuns()
	parent[2].Records[0].Cycles = 0
	bad = Gate(parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "gcc/clgp: a run measured no cycles") {
		t.Fatalf("expected an empty-measurement violation on gcc/clgp, got %v", bad)
	}
}

func TestGateFlagsMissingGridPoints(t *testing.T) {
	for _, side := range []string{"parent", "change"} {
		parent, change := gateRuns(), gateRuns()
		runs := change
		if side == "parent" {
			runs = parent
		}
		runs[0].Records = runs[0].Records[:1]
		bad := Gate(parent, change)
		if len(bad) != 1 || !strings.Contains(bad[0], "mcf/clgp") {
			t.Errorf("point missing from a %s run: expected one mcf/clgp violation, got %v", side, bad)
		}
	}
	// A point only the change measures is reported too.
	parent, change := gateRuns(), gateRuns()
	for _, cb := range change {
		cb.Records = append(cb.Records, CoreBenchRecord{Name: "gzip/clgp", Profile: "gzip", Engine: "clgp",
			Committed: 1000, NsPerCycle: 100, SpeedupVsNoSkip: 1.5})
	}
	bad := Gate(parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "gzip/clgp: measured in 0/5 parent") {
		t.Errorf("expected the change-only point reported, got %v", bad)
	}
}

func TestGateEnforcesSnapshotFloor(t *testing.T) {
	parent, change := gateRuns(), gateRuns()
	for _, cb := range change[:3] {
		cb.GridSnapshot.SpeedupVsCold = 1.05
	}
	bad := Gate(parent, change)
	if len(bad) != 1 || !strings.Contains(bad[0], "grid_snapshot/gcc") {
		t.Fatalf("expected one snapshot-floor violation, got %v", bad)
	}

	// Dropping the measurement from one run of either side must fail.
	runs := gateRuns()
	runs[4].GridSnapshot = nil
	bad = Gate(runs, gateRuns())
	if len(bad) != 1 || !strings.Contains(bad[0], "grid_snapshot: measured in 4/5 parent") {
		t.Errorf("expected a missing-grid_snapshot violation on the parent side, got %v", bad)
	}
	bad = Gate(gateRuns(), runs)
	if len(bad) != 1 || !strings.Contains(bad[0], "and 4/5 change") {
		t.Errorf("expected a missing-grid_snapshot violation on the change side, got %v", bad)
	}
}

func TestCoreBenchRoundTrip(t *testing.T) {
	cb := gateFixture()
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	if err := WriteCoreBench(path, cb); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCoreBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Insts != cb.Insts || len(got.Records) != len(cb.Records) ||
		got.Records[1] != cb.Records[1] || *got.GridSnapshot != *cb.GridSnapshot {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, cb)
	}
}

// TestLoadCoreBenchAcceptsCalibField: measurements written by builds that
// still ran a calibration loop carry calib_ns_per_op; a parent of that age
// must still be readable by the gate.
func TestLoadCoreBenchAcceptsCalibField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	doc := `{"calib_ns_per_op": 1.25, "insts": 1000,
	  "records": [{"name": "gcc/clgp", "profile": "gcc", "engine": "clgp", "committed": 1000, "ns_per_cycle": 150}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cb, err := LoadCoreBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Insts != 1000 || len(cb.Records) != 1 || cb.Records[0].NsPerCycle != 150 {
		t.Fatalf("parsed %+v", cb)
	}
}

// fakeBench writes an executable that stands in for a clgpsim binary: it
// runs body with $3 bound to the -core-json path of `bench -core-json F`.
func fakeBench(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMeasurePairs(t *testing.T) {
	fixture := filepath.Join(t.TempDir(), "fixture.json")
	if err := WriteCoreBench(fixture, gateFixture()); err != nil {
		t.Fatal(err)
	}
	order := filepath.Join(t.TempDir(), "order")
	good := func(side string) string {
		return fakeBench(t, side, fmt.Sprintf(`echo %s >> %s; cp %s "$3"`, side, order, fixture))
	}
	dir := t.TempDir()
	var log strings.Builder
	parent, change, err := MeasurePairs(good("parent"), good("change"), dir, 3, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent) != 3 || len(change) != 3 || parent[2].Records[1] != gateFixture().Records[1] {
		t.Fatalf("got %d parent and %d change runs", len(parent), len(change))
	}
	got, err := os.ReadFile(order)
	if err != nil {
		t.Fatal(err)
	}
	if want := "parent\nchange\nchange\nparent\nparent\nchange\n"; string(got) != want {
		t.Errorf("children ran in order %q, want alternating %q", got, want)
	}
	for _, f := range []string{"BENCH_core.parent-1.json", "BENCH_core.change-3.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("child measurement not kept: %v", err)
		}
	}

	// A child that fails, or that exits cleanly without writing its
	// measurement, fails the gate — even over a stale file from an earlier
	// run at the same path.
	for name, bad := range map[string]string{
		"exits non-zero": fakeBench(t, "crash", "echo boom; exit 3"),
		"writes no JSON": fakeBench(t, "silent", "exit 0"),
	} {
		if _, _, err := MeasurePairs(good("parent"), bad, dir, 1, &log); err == nil {
			t.Errorf("a change child that %s passed", name)
		}
	}
}

// TestMeasureCoreSmoke runs a tiny real measurement end to end: both clock
// modes must simulate the same cycle count (MeasureCore errors otherwise)
// and the derived fields must be populated sanely.
func TestMeasureCoreSmoke(t *testing.T) {
	cb, err := MeasureCore([]string{"gzip"}, []core.EngineKind{core.EngineCLGP}, 5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb.Records) != 1 {
		t.Fatalf("want 1 record, got %d", len(cb.Records))
	}
	r := cb.Records[0]
	if r.Cycles == 0 || r.NsPerCycle <= 0 || r.NoSkipNsPerCycle <= 0 || r.SpeedupVsNoSkip <= 0 {
		t.Fatalf("degenerate record: %+v", r)
	}
	if out := FormatCoreBench(cb); !strings.Contains(out, "gzip/clgp") {
		t.Fatalf("report table missing the grid point:\n%s", out)
	}
	runs := []*CoreBench{cb, cb, cb}
	if out := FormatCoreComparison(runs, runs); !strings.Contains(out, "gzip/clgp") {
		t.Fatalf("comparison table missing the grid point:\n%s", out)
	}
}

func TestMeasureSnapshotGridSmoke(t *testing.T) {
	gs, err := MeasureSnapshotGrid("gcc", 8_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Points != 8 {
		t.Errorf("measured %d points, want the 8-config grid", gs.Points)
	}
	if gs.Warmup != gs.Insts/2 {
		t.Errorf("warm-up %d is not half of %d insts", gs.Warmup, gs.Insts)
	}
	if gs.Cycles == 0 || gs.ColdCyclesPerSec <= 0 || gs.WarmCyclesPerSec <= 0 || gs.SpeedupVsCold <= 0 {
		t.Errorf("degenerate measurement: %+v", gs)
	}
	if gs.SnapshotBytes == 0 {
		t.Error("cold pass published no snapshot bytes")
	}
	// No throughput assertion at this trace length — construction cost
	// dominates 8k-inst runs; the bench gate holds the floor at full length.
}
