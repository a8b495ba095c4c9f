package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"strings"
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
// snapshots: for every engine kind at both nodes, a run restored from a mid-run snapshot
// must finish with results bit-identical (modulo telemetry) to a
// straight-through run — same cycles, same cycle accounts, same every counter.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	const numInsts = 30_000
	const warmup = numInsts / 2
	w := icacheStressWorkload(t, numInsts, 7)
	for _, node := range contractTechs {
		for _, ek := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
			t.Run(node.prefix+ek.String(), func(t *testing.T) {
				cfg := Config{
					Tech: node.tech, L1ISize: 2 << 10, Engine: ek,
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
}

// pinnedSnapshotEngine runs gzip (seed 1, 20K instructions) on CLGP + L0
// with a 2 KB L1I at 90 nm to 10K committed instructions: the point whose
// snapshot bytes TestSnapshotBytesPinned pins.
func pinnedSnapshotEngine(t *testing.T) (*Engine, *workload.Workload) {
	t.Helper()
	return warmedEngine(t, "gzip", Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true})
}

// warmedEngine runs profile (seed 1, 20K instructions) on cfg to 10K
// committed instructions.
func warmedEngine(t *testing.T, profile string, cfg Config) (*Engine, *workload.Workload) {
	t.Helper()
	p, err := workload.ProfileByName(profile)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	w, err := workload.Generate(p, 20_000, 1)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
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
		wantLen = 351816
		wantSum = "7a2a01450609fdda394d079435241769a72ac7ed0df12a55f1d8ad953ea0db7b"
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

	// Every other section variant: the filter engines' cursor, candidate
	// ring and prefetch buffer, the baseline's cursor-only record, a
	// hierarchy without an L0, the ideal I-cache, and the 45 nm node. gcc's
	// larger code keeps prefetches in flight at the snapshot point.
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantLen int
		wantSum string
	}{
		{"none", Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineNone},
			350119, "73295fffdd963ec3460bb11d4d8c2ef2d6848ed7c0264448e14c50357c2d8b0d"},
		{"nextn", Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineNextN},
			350491, "46d59633c51b254d2c99c68fcec47b375b223f59a8327a1f7312a1aa7b125751"},
		{"fdp", Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineFDP},
			350707, "95f6aa17690b67ed2936e146caebab80f327ec657e17a14b70575058a30e4f47"},
		{"clgp-no-l0", Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP},
			351537, "5d57cce308dfac2294da52eba58c67adf994ecbe03de4f90664d5c9baa04a33a"},
		{"ideal", Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineNone, IdealICache: true},
			350119, "4c86c59d7975bbab384f214e6212dee56d5ba1b33e85146d47b15dc7fe87bbcc"},
		{"clgp-45nm", Config{Tech: cacti.Tech45, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true},
			351513, "83326e704063470f61239ab67b5f15b9f991ef823bcc5ffa5f837908b42ee079"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, w := warmedEngine(t, "gcc", tc.cfg)
			data, err := eng.Snapshot(w.Name, workload.Fingerprint(w.Profile, w.Dict))
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); len(data) != tc.wantLen || got != tc.wantSum {
				t.Errorf("snapshot is %d bytes with SHA-256 %s, want %d bytes with %s",
					len(data), got, tc.wantLen, tc.wantSum)
			}
		})
	}
}

// resnapshot restores data into a fresh engine of cfg and snapshots that
// engine again.
func resnapshot(cfg Config, w *workload.Workload, data []byte) ([]byte, error) {
	fp := workload.Fingerprint(w.Profile, w.Dict)
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		return nil, err
	}
	if err := eng.Restore(data, w.Name, fp); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	return eng.Snapshot(w.Name, fp)
}

// TestSnapshotRestoreFixpoint: a restore re-binds a dependence only to a
// producer still in the RUU, so the first restore clears the "had a
// producer" flags of producers that had already left it, and changes no
// other byte. From then on snapshot∘restore is the identity on the bytes.
// Checked for four profiles, every engine, with and without an L0 and an
// ideal I-cache, at both nodes, at three points of each run.
func TestSnapshotRestoreFixpoint(t *testing.T) {
	for _, profile := range []string{"gzip", "gcc", "mcf", "twolf"} {
		p, err := workload.ProfileByName(profile)
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
		w, err := workload.Generate(p, 40_000, 3)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		fp := workload.Fingerprint(w.Profile, w.Dict)
		for _, node := range contractTechs {
			for _, ek := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
				for _, l0 := range []bool{false, true} {
					for _, ideal := range []bool{false, true} {
						cfg := Config{Tech: node.tech, L1ISize: 2 << 10, Engine: ek, UseL0: l0, IdealICache: ideal}
						name := fmt.Sprintf("%s %s %v l0=%v ideal=%v", node.tech, profile, ek, l0, ideal)
						eng := MustNewEngine(cfg, w.Dict, w.Trace)
						for _, at := range []uint64{5_000, 12_345, 20_000} {
							if err := eng.RunUntilCommitted(at); err != nil {
								t.Fatalf("%s: warm-up: %v", name, err)
							}
							data, err := eng.Snapshot(w.Name, fp)
							if err != nil {
								t.Fatalf("%s: snapshot: %v", name, err)
							}
							once, err := resnapshot(cfg, w, data)
							if err != nil {
								t.Fatalf("%s at %d: first round trip: %v", name, at, err)
							}
							twice, err := resnapshot(cfg, w, once)
							if err != nil {
								t.Fatalf("%s at %d: second round trip: %v", name, at, err)
							}
							if len(once) != len(data) || !bytes.Equal(twice, once) {
								t.Errorf("%s at %d: snapshot of %d bytes round-trips to %d, then %d bytes (equal: %v)",
									name, at, len(data), len(once), len(twice), bytes.Equal(twice, once))
							}
						}
					}
				}
			}
		}
	}
}

// TestSnapshotMidWrongPathEpisode snapshots an engine in the middle of a
// wrong-path episode, with wrong-path instructions both queued for dispatch
// and holding RUU slots, and restores it under both clock modes: each
// restored run must finish bit-identical to the straight-through run.
func TestSnapshotMidWrongPathEpisode(t *testing.T) {
	const numInsts = 20_000
	w := icacheStressWorkload(t, numInsts, 17)
	fp := workload.Fingerprint(w.Profile, w.Dict)
	cfg := Config{Tech: cacti.Tech45, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	eng := MustNewEngine(cfg, w.Dict, w.Trace)
	if err := eng.RunUntilCommitted(numInsts / 2); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	for eng.dqWrong == 0 || eng.backend.WrongPathSlots() == 0 {
		if !eng.Step() {
			t.Fatalf("run ended before a wrong-path episode filled the queue and the RUU: %v", eng.Err())
		}
	}
	data, err := eng.Snapshot(w.Name, fp)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, noSkip := range []bool{false, true} {
		c := cfg
		c.NoSkip = noSkip
		ref := runConfig(t, c, w)
		if got := restoreAndRun(t, c, w, data); !reflect.DeepEqual(got.WithoutTelemetry(), ref.WithoutTelemetry()) {
			t.Errorf("NoSkip=%v: run restored mid-episode diverges from straight-through:\nrestored: %+v\nstraight: %+v",
				noSkip, got, ref)
		}
	}
}

// TestRestoreRejectsOlderVersions: version 1 snapshots carried wrong-path
// instructions as records, and version 2 carried copies of state that
// loading now rebuilds. This build reads only the current version, so an
// older container fails with ErrBadVersion, and a sweep runs that job cold.
func TestRestoreRejectsOlderVersions(t *testing.T) {
	eng, w := pinnedSnapshotEngine(t)
	fp := workload.Fingerprint(w.Profile, w.Dict)
	for _, version := range []uint32{1, 2} {
		data, err := eng.Snapshot(w.Name, fp)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		// Re-stamp the version and re-seal the checksum, so the version is
		// the only thing wrong with the container.
		binary.LittleEndian.PutUint32(data[4:], version)
		body := data[:len(data)-4]
		binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		err = MustNewEngine(eng.Config(), w.Dict, w.Trace).Restore(data, w.Name, fp)
		if !errors.Is(err, snap.ErrBadVersion) {
			t.Errorf("restoring a version %d container returned %v, want ErrBadVersion", version, err)
		}
	}
}

// TestRestoreRebuildsCommitFrontier: the commit frontier travels once, as
// the back end's committed count, and loading sets the engine's
// lastCommitted from it. A restored engine must stand where the saved one
// stood: same cycle, same frontier.
func TestRestoreRebuildsCommitFrontier(t *testing.T) {
	eng, w := pinnedSnapshotEngine(t)
	fp := workload.Fingerprint(w.Profile, w.Dict)
	data, err := eng.Snapshot(w.Name, fp)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	r := MustNewEngine(eng.Config(), w.Dict, w.Trace)
	if err := r.Restore(data, w.Name, fp); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.cycle != eng.cycle || r.lastCommitted != eng.lastCommitted || r.backend.Committed() != eng.backend.Committed() {
		t.Errorf("restored at cycle %d with %d committed (back end %d), saved at cycle %d with %d (back end %d)",
			r.cycle, r.lastCommitted, r.backend.Committed(), eng.cycle, eng.lastCommitted, eng.backend.Committed())
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
// run overflow the queue when the line arrived. The queue is filled with
// wrong-path slots on an engine that is on a wrong path, so headroom is the
// only thing wrong with the state.
func TestRestoreRejectsDispatchQueueWithoutFetchHeadroom(t *testing.T) {
	eng, w := pinnedSnapshotEngine(t)
	// A pre-buffer-served line lands within a cycle or two, before dispatch
	// can drain the queue.
	for !eng.wrongPath || !eng.fetchActive || eng.fetchReq != nil || eng.fetchFR.NumInsts <= 8 {
		if !eng.Step() {
			t.Fatalf("run ended before a wrong-path pre-buffer line fetch: %v", eng.Err())
		}
	}
	eng.dqWrong = dispatchQueueCap - eng.dqN
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
	if err := fresh.Restore(data, w.Name, fp); !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), "no room") {
		_, runErr := fresh.Run()
		t.Fatalf("restore returned %v, want ErrCorrupt; the run then returned %v", err, runErr)
	}
}

// TestRestoreRejectsWrongPathSlotsOffTheWrongPath: recovery frees every
// wrong-path slot, so an engine that is not on a wrong path holds none,
// queued or in the back end. A snapshot that says otherwise is corrupt.
func TestRestoreRejectsWrongPathSlotsOffTheWrongPath(t *testing.T) {
	for _, where := range []string{"dispatch queue", "back end"} {
		eng, w := pinnedSnapshotEngine(t)
		for eng.wrongPath || eng.fetchActive {
			if !eng.Step() {
				t.Fatalf("run ended before a correct-path cycle with no line in flight: %v", eng.Err())
			}
		}
		if where == "dispatch queue" {
			eng.dqWrong = 1
		} else if eng.backend.DispatchWrongPath(1) != 1 {
			t.Fatal("the RUU has no free slot")
		}
		fp := workload.Fingerprint(w.Profile, w.Dict)
		data, err := eng.Snapshot(w.Name, fp)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		err = MustNewEngine(eng.Config(), w.Dict, w.Trace).Restore(data, w.Name, fp)
		if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), "not on a wrong path") {
			t.Errorf("a wrong-path slot in the %s off the wrong path: restore returned %v, want ErrCorrupt", where, err)
		}
	}
}

// TestRestoreRejectsQueuedInstructionWithRequest: instructions wait in the
// dispatch queue before they issue, so none holds a memory request, and
// Snapshot registers no request on their behalf. A snapshot that moves the
// fetch stage's granted request onto the head queued instruction (and points
// the fetch stage at another request) leaves that request owned only by the
// queued instruction. Restore must reject it as corrupt; accepting it let
// the restored engine's next Snapshot fail on an unregistered request.
func TestRestoreRejectsQueuedInstructionWithRequest(t *testing.T) {
	eng, w := pinnedSnapshotEngine(t)
	// A request granted the bus has left the hierarchy's slot table, so the
	// fetch stage is its only owner.
	for eng.fetchReq == nil || !eng.fetchReq.Scheduled() || eng.dqN == 0 {
		if !eng.Step() {
			t.Fatalf("run ended before a granted demand fetch with a queued instruction: %v", eng.Err())
		}
	}
	fp := workload.Fingerprint(w.Profile, w.Dict)
	data, err := eng.Snapshot(w.Name, fp)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	meta, payload, err := snap.Open(data)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fx := pinnedRestore{cfg: eng.Config(), w: w, meta: meta, payload: payload}
	reqs, _, _ := section(payload, "REQS", 0)
	numReqs := binary.LittleEndian.Uint64(payload[reqs+4:])
	// The fetch stage's request ID follows the recovery RAS (tag, depth,
	// top, entries), the block ring (count, 64 records of 33 bytes) and the
	// fetchActive byte.
	ras, _, _ := section(payload, "RASS", 0)
	depth := int(binary.LittleEndian.Uint64(payload[ras+4:]))
	fetchReqAt := ras + 4 + 8 + 8 + 8*depth + 8 + blockMetaRing*33 + 1
	k := binary.LittleEndian.Uint32(payload[fetchReqAt:])
	if k == 0 || numReqs < 2 {
		t.Fatalf("fetch request ID %d in a table of %d; want a live fetch and another request", k, numReqs)
	}
	// The head queued instruction's request ID follows its tag, its static
	// marker (and PC, for an image instruction) and 34 bytes of identity and
	// timing.
	inst, _, _ := section(payload, "PEIN", 0)
	memReqAt := inst + 4 + 1 + 34
	if payload[inst+4] == 1 {
		memReqAt += 8
	}
	if got := binary.LittleEndian.Uint32(payload[memReqAt:]); got != 0 {
		t.Fatalf("head queued instruction holds request %d", got)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("restored run panicked: %v", r)
		}
	}()
	restored, err := restoreEditedEngine(fx, func(p []byte) {
		binary.LittleEndian.PutUint32(p[fetchReqAt:], k%uint32(numReqs)+1)
		binary.LittleEndian.PutUint32(p[memReqAt:], k)
	})
	if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), "holds a memory request") {
		if err == nil {
			_, err = restored.Snapshot(w.Name, fp)
		}
		t.Fatalf("restore accepted the queued request, or failed otherwise; error: %v", err)
	}
}
