package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/freelist"
	"clgp/internal/snap"
	"clgp/internal/stats"
	"clgp/internal/trace"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// warmSnapshot runs a fresh engine to the warm-up boundary and serialises it.
func warmSnapshot(t *testing.T, cfg Config, w *workload.Workload, warmup uint64) []byte {
	t.Helper()
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := eng.RunUntilCommitted(warmup); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	data, err := eng.Snapshot(w.Name, workload.Fingerprint(w.Profile, w.Dict))
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return data
}

// restoreAndRun builds a fresh engine, restores the snapshot into it and runs
// it to completion.
func restoreAndRun(t *testing.T, cfg Config, w *workload.Workload, data []byte) *stats.Results {
	t.Helper()
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := eng.Restore(data, w.Name, workload.Fingerprint(w.Profile, w.Dict)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	return r
}

// TestSnapshotRestoreBitIdentical is the acceptance property of warm-state
// snapshots: for every engine kind, a run restored from a mid-run snapshot
// must finish with results bit-identical (modulo telemetry) to a
// straight-through run — same cycles, same cycle accounts, same every counter.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	const numInsts = 30_000
	const warmup = numInsts / 2
	w := icacheStressWorkload(t, numInsts, 7)
	for _, ek := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
		t.Run(ek.String(), func(t *testing.T) {
			cfg := Config{
				Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: ek,
				UseL0: ek == EngineCLGP, PreBufferEntries: 8,
			}
			ref := runConfig(t, cfg, w)
			data := warmSnapshot(t, cfg, w, warmup)
			got := restoreAndRun(t, cfg, w, data)
			if !reflect.DeepEqual(got.WithoutTelemetry(), ref.WithoutTelemetry()) {
				t.Errorf("restored run diverges from straight-through:\nrestored: %+v\nstraight: %+v", got, ref)
			}
			if got.Cycles != ref.Cycles {
				t.Errorf("restored final cycle count %d != straight-through %d", got.Cycles, ref.Cycles)
			}
		})
	}
}

// pinnedSnapshotEngine runs gzip (seed 1, 20K instructions) on CLGP + L0
// with a 2 KB L1I at 90 nm to 10K committed instructions: the point whose
// snapshot bytes TestSnapshotBytesPinned pins.
func pinnedSnapshotEngine(t *testing.T) (*Engine, *workload.Workload) {
	t.Helper()
	p, err := workload.ProfileByName("gzip")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	w, err := workload.Generate(p, 20_000, 1)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := eng.RunUntilCommitted(10_000); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	return eng, w
}

// TestSnapshotBytesPinned pins the exact bytes of one snapshot by their
// SHA-256. Snapshots already in stores stay valid only while the payload
// layout is unchanged, so a failure here means the layout moved: bump
// snap.Version, update FORMAT.md, and re-pin.
func TestSnapshotBytesPinned(t *testing.T) {
	const (
		wantLen = 356010
		wantSum = "9fd5653aff9f08460aede827b818b341dcd9bcdd84a302839110c349f6dd1af1"
	)
	eng, w := pinnedSnapshotEngine(t)
	data, err := eng.Snapshot(w.Name, workload.Fingerprint(w.Profile, w.Dict))
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSum {
		t.Errorf("snapshot is %d bytes with SHA-256 %s, want %d bytes with %s",
			len(data), got, wantLen, wantSum)
	}
}

// TestSnapshotAllocBudget: once a first snapshot has sized Seal's buffer
// request, a snapshot allocates little beyond the container it returns (at
// most 1.1x its length), and a snapshot whose predecessor's container was
// handed back to freelist.Artifacts allocates under 4 KB. The budgets hold
// the cheapest of a few snapshots, so a collection landing in one does not
// decide them.
func TestSnapshotAllocBudget(t *testing.T) {
	eng, w := pinnedSnapshotEngine(t)
	fp := workload.Fingerprint(w.Profile, w.Dict)
	if _, err := eng.Snapshot(w.Name, fp); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	least, size := ^uint64(0), 0
	for try := 0; try < 10; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		data, err := eng.Snapshot(w.Name, fp)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		least, size = min(least, after.TotalAlloc-before.TotalAlloc), len(data)
	}
	if float64(least) > 1.1*float64(size) {
		t.Errorf("a repeated snapshot allocated %d bytes for a %d-byte result (budget 1.1x)", least, size)
	}

	const recycledBudget = 4 << 10
	data, _ := eng.Snapshot(w.Name, fp)
	least = ^uint64(0)
	for try := 0; try < 10; try++ {
		freelist.Artifacts.Put(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		again, err := eng.Snapshot(w.Name, fp)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if &again[0] != &data[0] {
			t.Fatalf("try %d: the snapshot was not sealed into the handed-back container", try)
		}
		data, least = again, min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a snapshot into a handed-back container allocated %d bytes", least)
	if least > recycledBudget {
		t.Errorf("a snapshot into a handed-back container allocated %d bytes (budget %d)", least, recycledBudget)
	}
}

// TestSnapshotCrossModeRestore checks that a snapshot is a clock-mode-neutral
// architectural checkpoint: recorded under the per-cycle reference clock it
// must restore bit-identically under the event-horizon clock, and vice versa.
func TestSnapshotCrossModeRestore(t *testing.T) {
	const numInsts = 30_000
	const warmup = numInsts / 2
	w := icacheStressWorkload(t, numInsts, 11)
	base := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true, PreBufferEntries: 8}
	perCycle := base
	perCycle.NoSkip = true

	modes := []struct {
		name            string
		record, restore Config
	}{
		{"percycle-to-skip", perCycle, base},
		{"skip-to-percycle", base, perCycle},
		{"skip-to-skip", base, base},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ref := runConfig(t, m.restore, w)
			data := warmSnapshot(t, m.record, w, warmup)
			got := restoreAndRun(t, m.restore, w, data)
			if !reflect.DeepEqual(got.WithoutTelemetry(), ref.WithoutTelemetry()) {
				t.Errorf("cross-mode restored run diverges:\nrestored: %+v\nstraight: %+v", got, ref)
			}
		})
	}
}

// TestSnapshotRestoreStreamed restores an in-memory-recorded snapshot into an
// engine streaming the same trace through a bounded window: the restore-time
// Advance must evict the committed prefix so the window stays bounded, and the
// results must stay bit-identical to the in-memory straight-through run.
func TestSnapshotRestoreStreamed(t *testing.T) {
	const numInsts = 60_000
	const warmup = numInsts / 2
	const windowCap = 4096
	path, w := recordTraceFile(t, numInsts, 41)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 1 << 10, Engine: EngineCLGP, UseL0: true}
	ref := runConfig(t, cfg, w)
	data := warmSnapshot(t, cfg, w, warmup)

	rd, err := tracefile.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	wt, err := trace.NewWindowTrace(rd, windowCap)
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	eng, err := NewEngine(cfg, w.Dict, wt)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := eng.Restore(data, w.Name, workload.Fingerprint(w.Profile, w.Dict)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got, err := eng.Run()
	if err != nil {
		t.Fatalf("streamed restored run: %v", err)
	}
	if !reflect.DeepEqual(got.WithoutTelemetry(), ref.WithoutTelemetry()) {
		t.Errorf("streamed restored run diverges from in-memory straight-through:\nrestored: %+v\nstraight: %+v", got, ref)
	}
	if wt.MaxResident() > windowCap {
		t.Errorf("window held %d records, cap %d — restore broke the eviction frontier", wt.MaxResident(), windowCap)
	}
}

// TestSnapshotRejectsMismatch exercises every identity check Restore applies
// before touching engine state.
func TestSnapshotRejectsMismatch(t *testing.T) {
	const numInsts = 20_000
	w := icacheStressWorkload(t, numInsts, 13)
	fp := workload.Fingerprint(w.Profile, w.Dict)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	data := warmSnapshot(t, cfg, w, numInsts/2)

	fresh := func(c Config) *Engine {
		t.Helper()
		eng, err := NewEngine(c, w.Dict, w.Trace)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		return eng
	}

	if err := fresh(cfg).Restore(data, "other-workload", fp); err == nil {
		t.Error("restore accepted a mismatched workload name")
	}
	if err := fresh(cfg).Restore(data, w.Name, fp+1); err == nil {
		t.Error("restore accepted a mismatched fingerprint")
	}
	other := cfg
	other.L1ISize = 4 << 10
	if err := fresh(other).Restore(data, w.Name, fp); err == nil {
		t.Error("restore accepted a configuration with a different warm key")
	}
	otherEng := cfg
	otherEng.Engine = EngineFDP
	otherEng.UseL0 = false
	if err := fresh(otherEng).Restore(data, w.Name, fp); err == nil {
		t.Error("restore accepted a different engine scheme")
	}

	// A non-fresh engine must refuse.
	used := fresh(cfg)
	if err := used.RunUntilCommitted(100); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	if err := used.Restore(data, w.Name, fp); err == nil {
		t.Error("restore accepted a non-fresh engine")
	}

	// A finished engine must refuse to snapshot.
	doneEng := fresh(cfg)
	if _, err := doneEng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := doneEng.Snapshot(w.Name, fp); err == nil {
		t.Error("snapshot of a finished engine succeeded")
	}

	// Damage must be rejected by the container or the strict decoder.
	trunc := data[:len(data)/2]
	if err := fresh(cfg).Restore(trunc, w.Name, fp); err == nil {
		t.Error("restore accepted a truncated snapshot")
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x40
	if err := fresh(cfg).Restore(flip, w.Name, fp); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("corrupted snapshot: got %v, want ErrCorrupt", err)
	}
}

// TestWarmKeyAxes pins which configuration axes participate in the warm key:
// the result label and the clock mode must not (they do not change warm
// state), microarchitectural fields must.
func TestWarmKeyAxes(t *testing.T) {
	base := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	key := base.WarmKey()

	same := base
	same.Name = "renamed"
	same.NoSkip = true
	if same.WarmKey() != key {
		t.Error("Name/NoSkip changed the warm key; sweeps over those axes cannot share snapshots")
	}

	for name, mutate := range map[string]func(*Config){
		"L1ISize":          func(c *Config) { c.L1ISize = 4 << 10 },
		"Engine":           func(c *Config) { c.Engine = EngineFDP },
		"UseL0":            func(c *Config) { c.UseL0 = false },
		"PreBufferEntries": func(c *Config) { c.PreBufferEntries = 16 },
		"Tech":             func(c *Config) { c.Tech = cacti.Tech45 },
	} {
		c := base
		mutate(&c)
		if c.WarmKey() == key {
			t.Errorf("%s change did not change the warm key", name)
		}
	}
}

// TestWarmKeyPinned pins WarmKey for every engine with and without an L0,
// and for one ideal-I-cache configuration. Snapshot stores are addressed by
// these keys, so a change here orphans every stored warm-state snapshot.
func TestWarmKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		kind EngineKind
		l0   bool
		want uint64
	}{
		{EngineNone, false, 0x9ef26cd6d59faa31},
		{EngineNone, true, 0x4322dd6ce9c270d4},
		{EngineNextN, false, 0x1362407efd8e1a40},
		{EngineNextN, true, 0x21cb74f5b311cb25},
		{EngineFDP, false, 0xb361a5bed5d1e807},
		{EngineFDP, true, 0x7fd02cb3aad6de92},
		{EngineCLGP, false, 0x3d64ddc17b18bcee},
		{EngineCLGP, true, 0x4cb615e0d5a6589b},
	} {
		c := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: tc.kind, UseL0: tc.l0}
		if got := c.WarmKey(); got != tc.want {
			t.Errorf("%v l0=%v: warm key %#016x, want %#016x", tc.kind, tc.l0, got, tc.want)
		}
	}
	ideal := Config{Tech: cacti.Tech45, L1ISize: 4 << 10, Engine: EngineNone, IdealICache: true}
	if got, want := ideal.WarmKey(), uint64(0x5594df7c7e04ceff); got != want {
		t.Errorf("ideal: warm key %#016x, want %#016x", got, want)
	}
}

// TestRestoreRejectsDispatchQueueWithoutFetchHeadroom: fetch starts a line
// only with a full line of dispatch-queue headroom, so a snapshot whose queue
// is fuller than that while a line is in flight describes a state no run
// reaches. Restore must reject it as corrupt; accepting it let the restored
// run overflow the queue when the line arrived.
func TestRestoreRejectsDispatchQueueWithoutFetchHeadroom(t *testing.T) {
	eng, w := pinnedSnapshotEngine(t)
	// A pre-buffer-served line lands within a cycle or two, before dispatch
	// can drain the queue.
	for !eng.fetchActive || eng.fetchReq != nil || eng.fetchFR.NumInsts <= 8 {
		if !eng.Step() {
			t.Fatalf("run ended before a pre-buffer line fetch: %v", eng.Err())
		}
	}
	for eng.dqN < dispatchQueueCap {
		d := eng.pool.Get()
		d.Static = &eng.nop
		d.WrongPath = true
		eng.dqPush(d)
	}
	fp := workload.Fingerprint(w.Profile, w.Dict)
	data, err := eng.Snapshot(w.Name, fp)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	fresh := MustNewEngine(eng.Config(), w.Dict, w.Trace)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("restored run panicked: %v", r)
		}
	}()
	if err := fresh.Restore(data, w.Name, fp); !errors.Is(err, snap.ErrCorrupt) {
		_, runErr := fresh.Run()
		t.Fatalf("restore returned %v, want ErrCorrupt; the run then returned %v", err, runErr)
	}
}
