package sim

import (
	"path/filepath"
	"strings"
	"testing"

	"clgp/internal/core"
)

func gateFixture() *CoreBench {
	return &CoreBench{
		CalibNsPerOp: 2.0,
		Insts:        1000,
		Records: []CoreBenchRecord{
			{Name: "gcc/clgp", Profile: "gcc", Engine: "clgp", NsPerCycle: 150, SpeedupVsNoSkip: 2.1, AllocsPerKCycle: 0.01},
			{Name: "mcf/clgp", Profile: "mcf", Engine: "clgp", NsPerCycle: 60, SpeedupVsNoSkip: 4.5, AllocsPerKCycle: 0.01},
		},
	}
}

func TestGatePassesOnIdenticalRuns(t *testing.T) {
	cb := gateFixture()
	if bad := Gate(cb, cb, DefaultGateLimits()); len(bad) != 0 {
		t.Fatalf("identical runs should pass the gate, got %v", bad)
	}
}

func TestGateCatchesNsPerCycleRegression(t *testing.T) {
	base, cur := gateFixture(), gateFixture()
	cur.Records[0].NsPerCycle = base.Records[0].NsPerCycle * 1.2 // +20% > the 10% budget
	bad := Gate(base, cur, DefaultGateLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "gcc/clgp") {
		t.Fatalf("expected one gcc/clgp regression, got %v", bad)
	}
}

func TestGateScalesBaselineByCalibration(t *testing.T) {
	base, cur := gateFixture(), gateFixture()
	// The current machine is 2x slower: ns/cycle doubles everywhere, but so
	// does the calibration loop — the gate must not flag it.
	cur.CalibNsPerOp = base.CalibNsPerOp * 2
	for i := range cur.Records {
		cur.Records[i].NsPerCycle *= 2
	}
	if bad := Gate(base, cur, DefaultGateLimits()); len(bad) != 0 {
		t.Fatalf("calibration-scaled slowdown should pass, got %v", bad)
	}
	// A real regression on top of the machine slowdown must still fail.
	cur.Records[1].NsPerCycle *= 1.2
	if bad := Gate(base, cur, DefaultGateLimits()); len(bad) != 1 {
		t.Fatalf("expected the mcf/clgp regression to survive scaling, got %v", bad)
	}
}

func TestGateNeverScalesBaselineDown(t *testing.T) {
	base, cur := gateFixture(), gateFixture()
	// A faster (or turbo-bursting) machine halves the calibration but the
	// simulator only got marginally faster: the allowed bound must stay
	// anchored at the unscaled baseline, not shrink with the calibration.
	cur.CalibNsPerOp = base.CalibNsPerOp / 2
	for i := range cur.Records {
		cur.Records[i].NsPerCycle *= 0.95
	}
	if bad := Gate(base, cur, DefaultGateLimits()); len(bad) != 0 {
		t.Fatalf("downward calibration noise manufactured regressions: %v", bad)
	}
}

func TestGateEnforcesInvariants(t *testing.T) {
	cur := gateFixture()
	cur.Records[1].SpeedupVsNoSkip = 1.2  // miss-heavy floor is higher
	cur.Records[0].SpeedupVsNoSkip = 0.8  // slower than per-cycle
	cur.Records[0].AllocsPerKCycle = 12.0 // allocating on the hot path
	bad := Gate(nil, cur, DefaultGateLimits())
	if len(bad) != 3 {
		t.Fatalf("expected 3 invariant violations, got %v", bad)
	}
}

func TestGateRejectsMismatchedInsts(t *testing.T) {
	base, cur := gateFixture(), gateFixture()
	cur.Insts = base.Insts / 2
	bad := Gate(base, cur, DefaultGateLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "-core-insts") {
		t.Fatalf("expected an insts-mismatch violation, got %v", bad)
	}
}

func TestGateFlagsMissingGridPoints(t *testing.T) {
	base, cur := gateFixture(), gateFixture()
	cur.Records = cur.Records[:1]
	bad := Gate(base, cur, DefaultGateLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "mcf/clgp") {
		t.Fatalf("expected a missing-grid-point violation, got %v", bad)
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
	if got.CalibNsPerOp != cb.CalibNsPerOp || len(got.Records) != len(cb.Records) ||
		got.Records[1] != cb.Records[1] {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, cb)
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
	if cb.CalibNsPerOp <= 0 {
		t.Fatalf("calibration did not run: %+v", cb)
	}
	if out := FormatCoreComparison(cb, cb); !strings.Contains(out, "gzip/clgp") {
		t.Fatalf("comparison table missing the grid point:\n%s", out)
	}
}

func TestGateEnforcesSnapshotFloor(t *testing.T) {
	base, cur := gateFixture(), gateFixture()
	base.GridSnapshot = &GridSnapshotRecord{Profile: "gcc", Points: 8, SpeedupVsCold: 1.8}
	cur.GridSnapshot = &GridSnapshotRecord{Profile: "gcc", Points: 8, SpeedupVsCold: 1.05}
	bad := Gate(base, cur, DefaultGateLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "grid_snapshot/gcc") {
		t.Fatalf("expected one snapshot-floor violation, got %v", bad)
	}

	// Dropping the measurement while the baseline carries one must fail.
	cur.GridSnapshot = nil
	bad = Gate(base, cur, DefaultGateLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "not measured") {
		t.Fatalf("expected a missing-grid_snapshot violation, got %v", bad)
	}

	// A pre-snapshot baseline gates a snapshot measurement without complaint.
	base.GridSnapshot = nil
	cur.GridSnapshot = &GridSnapshotRecord{Profile: "gcc", Points: 8, SpeedupVsCold: 1.8}
	if bad := Gate(base, cur, DefaultGateLimits()); len(bad) != 0 {
		t.Fatalf("pre-snapshot baseline should not trip the gate, got %v", bad)
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
