package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"

	"clgp/internal/snap"
	"clgp/internal/workload"
)

// snapshotTags are the section tags the pinned CLGP+L0 snapshot payload
// carries, as their little-endian bytes (each tag constant spells its name
// that way). TestSnapshotTagsInPinnedPayload checks that every one occurs.
var snapshotTags = []string{
	"CORE", "REQS", "RASS", "PEIN", "MEMH", "CACH", "BUSA", "PBUF",
	"PEBK", "FPCM", "FPEN", "CLTQ", "BPRD",
}

// pinnedRestore is the snapshot of pinnedSnapshotEngine, opened, with the
// engine configuration and workload a restore needs.
type pinnedRestore struct {
	cfg     Config
	w       *workload.Workload
	meta    snap.Meta
	payload []byte
}

var (
	pinnedRestoreOnce sync.Once
	pinnedRestoreVal  pinnedRestore
)

func pinnedRestoreFixture(t *testing.T) pinnedRestore {
	pinnedRestoreOnce.Do(func() {
		eng, w := pinnedSnapshotEngine(t)
		data, err := eng.Snapshot(w.Name, workload.Fingerprint(w.Profile, w.Dict))
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		meta, payload, err := snap.Open(data)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		pinnedRestoreVal = pinnedRestore{cfg: eng.Config(), w: w, meta: meta, payload: payload}
	})
	if pinnedRestoreVal.payload == nil {
		t.Fatal("pinned snapshot fixture failed to build")
	}
	return pinnedRestoreVal
}

// section returns the bounds of the nth occurrence (modulo their count) of
// tag in payload: from the tag to the next tag of any kind, or the end.
// ok is false when the tag does not occur.
func section(payload []byte, tag string, nth int) (start, end int, ok bool) {
	var starts []int
	for off := 0; ; {
		i := bytes.Index(payload[off:], []byte(tag))
		if i < 0 {
			break
		}
		starts = append(starts, off+i)
		off += i + 1
	}
	if len(starts) == 0 {
		return 0, 0, false
	}
	start = starts[nth%len(starts)]
	end = len(payload)
	for _, other := range snapshotTags {
		if i := bytes.Index(payload[start+1:], []byte(other)); i >= 0 && start+1+i < end {
			end = start + 1 + i
		}
	}
	return start, end, true
}

// TestSnapshotTagsInPinnedPayload: a tag that section cannot find makes
// FuzzEngineRestore skip every input that names it, so each entry of
// snapshotTags must occur in the pinned payload.
func TestSnapshotTagsInPinnedPayload(t *testing.T) {
	fx := pinnedRestoreFixture(t)
	for _, tag := range snapshotTags {
		if _, _, ok := section(fx.payload, tag, 0); !ok {
			t.Errorf("the pinned snapshot payload carries no %s section", tag)
		}
	}
}

// restoreEdited applies edit to a copy of the pinned payload, re-seals it
// under the pinned meta, restores it into a fresh engine and runs that to
// its target. It returns Restore's error, or else Run's.
func restoreEdited(fx pinnedRestore, edit func(payload []byte)) (restoreErr, runErr error) {
	eng, err := restoreEditedEngine(fx, edit)
	if err != nil {
		return err, nil
	}
	_, err = eng.Run()
	return nil, err
}

// restoreEditedEngine is restoreEdited without the run: it returns the
// restored engine, or Restore's error.
func restoreEditedEngine(fx pinnedRestore, edit func(payload []byte)) (*Engine, error) {
	payload := append([]byte(nil), fx.payload...)
	edit(payload)
	data := snap.Seal(fx.meta, func(e *snap.Encoder) {
		for _, b := range payload {
			e.U8(b)
		}
	})
	eng := MustNewEngine(fx.cfg, fx.w.Dict, fx.w.Trace)
	if err := eng.Restore(data, fx.w.Name, workload.Fingerprint(fx.w.Profile, fx.w.Dict)); err != nil {
		return nil, err
	}
	return eng, nil
}

// TestRestoreRejectsOverfullCLTQLine: the CLTQ splits fetch blocks into
// lines, so no entry holds more instructions than fit in one line. A
// snapshot whose head entry claims 40 must be rejected as corrupt;
// accepting it overflowed the dispatch queue when fetch delivered the line.
func TestRestoreRejectsOverfullCLTQLine(t *testing.T) {
	fx := pinnedRestoreFixture(t)
	start, _, ok := section(fx.payload, "CLTQ", 0)
	if !ok {
		t.Fatal("pinned snapshot has no CLTQ section")
	}
	// Tag, entry count, then the head entry's Line and Start precede its
	// NumInsts.
	if n := binary.LittleEndian.Uint64(fx.payload[start+4:]); n == 0 {
		t.Fatal("pinned snapshot's CLTQ is empty")
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("restored run panicked: %v", r)
		}
	}()
	restoreErr, runErr := restoreEdited(fx, func(p []byte) {
		binary.LittleEndian.PutUint64(p[start+28:], 40)
	})
	if !errors.Is(restoreErr, snap.ErrCorrupt) {
		t.Fatalf("restore returned %v, want ErrCorrupt; the run then returned %v", restoreErr, runErr)
	}
}

// FuzzEngineRestore edits one section of the pinned snapshot — the nth
// occurrence of a tag, at (offset, xor) pairs within it — re-seals it and
// restores it. Every input must end in a restore error, a run to the
// target, or the engine's own no-progress error; never in a panic. An
// input that restores must also snapshot, and that snapshot must restore
// and snapshot again to the same bytes.
//
// Input: tag indexes snapshotTags (mod its length), nth picks the
// occurrence, and edits is read as 3-byte groups: a little-endian offset
// into the section (mod its length) and the byte to xor there.
func FuzzEngineRestore(f *testing.F) {
	f.Add(uint8(0), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, tag uint8, nth uint16, edits []byte) {
		fx := pinnedRestoreFixture(t)
		start, end, ok := section(fx.payload, snapshotTags[int(tag)%len(snapshotTags)], int(nth))
		if !ok {
			return
		}
		eng, restoreErr := restoreEditedEngine(fx, func(p []byte) {
			for ; len(edits) >= 3; edits = edits[3:] {
				off := int(binary.LittleEndian.Uint16(edits)) % (end - start)
				p[start+off] ^= edits[2]
			}
		})
		if restoreErr != nil {
			return
		}
		once, err := eng.Snapshot(fx.w.Name, workload.Fingerprint(fx.w.Profile, fx.w.Dict))
		if err != nil {
			t.Fatalf("the restored engine does not snapshot: %v", err)
		}
		twice, err := resnapshot(fx.cfg, fx.w, once)
		if err != nil {
			t.Fatalf("the restored engine's snapshot does not round-trip: %v", err)
		}
		if !bytes.Equal(twice, once) {
			t.Fatalf("the restored engine's %d-byte snapshot round-trips to %d different bytes", len(once), len(twice))
		}
		if _, runErr := eng.Run(); runErr != nil && !strings.Contains(runErr.Error(), "no forward progress") {
			t.Fatalf("restored run failed with %v; want a run to the target or no forward progress", runErr)
		}
	})
}

// TestStallWatchdogSkipMatchesNoSkip restores two corpus mutants that stop
// committing a few instructions after the restore point, in both clock
// modes: pein-stall-after-restore keeps the machine ticking, and
// reqs-wedge-after-restore leaves it with no pending event at all, so the
// skip path jumps straight to the deadline. Each run must fail with the
// no-progress error stallCycles after its last commit, at the same cycle in
// both modes, long before maxCycles.
func TestStallWatchdogSkipMatchesNoSkip(t *testing.T) {
	fx := pinnedRestoreFixture(t)
	for _, tc := range []struct {
		name string
		tag  string
		nth  int
		off  int // the corpus edit's little-endian offset, and its xor
		xor  byte
	}{
		{"pein-stall-after-restore", "PEIN", 63, 0x9ef2, 0x80},
		{"reqs-wedge-after-restore", "REQS", 48, 0xeecd, 0x80},
	} {
		start, end, ok := section(fx.payload, tc.tag, tc.nth)
		if !ok {
			t.Fatalf("pinned snapshot has no %s section", tc.tag)
		}
		payload := append([]byte(nil), fx.payload...)
		payload[start+tc.off%(end-start)] ^= tc.xor
		data := snap.Seal(fx.meta, func(e *snap.Encoder) {
			for _, b := range payload {
				e.U8(b)
			}
		})
		var cycles [2]uint64
		for i, noSkip := range []bool{false, true} {
			cfg := fx.cfg
			cfg.NoSkip = noSkip
			eng := MustNewEngine(cfg, fx.w.Dict, fx.w.Trace)
			if err := eng.Restore(data, fx.w.Name, workload.Fingerprint(fx.w.Profile, fx.w.Dict)); err != nil {
				t.Fatalf("%s NoSkip=%v: restore: %v", tc.name, noSkip, err)
			}
			if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "no forward progress") {
				t.Fatalf("%s NoSkip=%v: run returned %v, want the no-progress error", tc.name, noSkip, err)
			}
			if eng.Cycles() != eng.deadline || eng.deadline < fx.meta.Cycle+stallCycles || eng.deadline >= eng.maxCycles {
				t.Errorf("%s NoSkip=%v: stopped at cycle %d with deadline %d, restored at cycle %d, maxCycles %d",
					tc.name, noSkip, eng.Cycles(), eng.deadline, fx.meta.Cycle, eng.maxCycles)
			}
			cycles[i] = eng.Cycles()
		}
		if cycles[0] != cycles[1] {
			t.Errorf("%s: skip stopped at cycle %d, no-skip at %d", tc.name, cycles[0], cycles[1])
		}
	}
}
