package prebuffer

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"clgp/internal/snap"
)

// state is what both buffer flavours save and load.
type state interface {
	Walk(*snap.Walker)
}

// Offsets into a buffer payload: the section tag, then 28 bytes per entry
// (line u64, allocated u8, valid u8, consumers i64, used u8, lru u64,
// available u8), then six 8-byte counters.
const (
	entriesOff   = 4
	entryBytes   = 8 + 1 + 1 + 8 + 1 + 8 + 1
	consumersOff = 8 + 1 + 1
)

// resealed saves b, lets mutate edit the payload, and re-seals it with a
// valid checksum, so only the loading walk's own checks stand between the edit and
// the buffer.
func resealed(t *testing.T, b state, mutate func(payload []byte)) []byte {
	t.Helper()
	m, payload, err := snap.Open(snap.Seal(snap.Meta{Workload: "prebuffer-test"}, func(e *snap.Encoder) { b.Walk(snap.Saver(e)) }))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	edited := append([]byte(nil), payload...)
	mutate(edited)
	return snap.Seal(m, func(e *snap.Encoder) {
		d := snap.NewDecoder(edited)
		for d.Remaining() > 0 {
			e.U8(d.U8())
		}
	})
}

// load restores data into b, returning the decoder's verdict.
func load(t *testing.T, b state, data []byte) error {
	t.Helper()
	_, payload, err := snap.Open(data)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	d := snap.NewDecoder(payload)
	b.Walk(snap.Loader(d))
	if d.Err() == nil && d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after buffer state", d.Remaining())
	}
	return d.Err()
}

// putInt64 overwrites the 8-byte integer at off.
func putInt64(p []byte, off int, v int64) { binary.LittleEndian.PutUint64(p[off:], uint64(v)) }

// duplicateLine copies entry 0's line into entry 1; both are allocated.
func duplicateLine(p []byte) {
	copy(p[entriesOff+entryBytes:][:8], p[entriesOff:][:8])
}

// rejectsAll checks that every mutation of b's saved state fails to load
// into a fresh buffer as ErrCorrupt, and that the unedited state loads.
func rejectsAll(t *testing.T, b state, fresh func() state, cases map[string]func([]byte)) {
	t.Helper()
	if err := load(t, fresh(), resealed(t, b, func([]byte) {})); err != nil {
		t.Fatalf("unedited re-sealed state rejected: %v", err)
	}
	for name, mutate := range cases {
		if err := load(t, fresh(), resealed(t, b, mutate)); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLoadStateRejectsImpossibleEntries: a line allocated in two entries or
// a negative consumers counter can never arise from the prestage buffer's
// own operations, so restoring either must fail loudly.
func TestLoadStateRejectsImpossibleEntries(t *testing.T) {
	const n = 4
	sb, err := NewPrestageBuffer(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb.Request(0x100)
	sb.Request(0x140)
	sb.Request(0x140)
	sb.Fill(0x100)
	rejectsAll(t, sb, func() state { s, _ := NewPrestageBuffer(n, 1); return s }, map[string]func([]byte){
		"line in two entries": duplicateLine,
		"negative consumers": func(p []byte) {
			putInt64(p, entriesOff+consumersOff, -1)
		},
	})
}

// TestPrefetchLoadStateRejectsImpossibleEntries: the same for the prefetch
// buffer, which never counts consumers.
func TestPrefetchLoadStateRejectsImpossibleEntries(t *testing.T) {
	const n = 4
	pb, err := NewPrefetchBuffer(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pb.Allocate(0x100)
	pb.Allocate(0x140)
	pb.Fill(0x100)
	rejectsAll(t, pb, func() state { p, _ := NewPrefetchBuffer(n, 1); return p }, map[string]func([]byte){
		"line in two entries": duplicateLine,
		"negative consumers": func(p []byte) {
			putInt64(p, entriesOff+consumersOff, -1)
		},
		"consumers on a prefetch entry": func(p []byte) {
			putInt64(p, entriesOff+consumersOff, 1)
		},
	})
}

// TestSnapshotRoundTrip saves each flavour after a mix of allocations,
// fills, hits and invalidations and loads it into a fresh buffer of the
// same size: the restored buffer must equal the saved one field for field,
// counters rebuilt from the entries (free, replaceable) included.
func TestSnapshotRoundTrip(t *testing.T) {
	const n = 4
	pb, _ := NewPrefetchBuffer(n, 1)
	pb.Allocate(0x100)
	pb.Allocate(0x140)
	pb.Allocate(0x180)
	pb.Fill(0x100)
	pb.Fill(0x140)
	pb.Lookup(0x100)
	pb.Invalidate(0x140)
	sb, _ := NewPrestageBuffer(n, 1)
	sb.Request(0x100)
	sb.Request(0x140)
	sb.Request(0x140)
	sb.Request(0x180)
	sb.Fill(0x100)
	sb.Fill(0x140)
	sb.Lookup(0x100)
	sb.Lookup(0x140)
	freshPB, _ := NewPrefetchBuffer(n, 1)
	freshSB, _ := NewPrestageBuffer(n, 1)
	for _, tc := range []struct {
		name         string
		saved, fresh state
	}{{"prefetch", pb, freshPB}, {"prestage", sb, freshSB}} {
		if err := load(t, tc.fresh, resealed(t, tc.saved, func([]byte) {})); err != nil {
			t.Fatalf("%s: load: %v", tc.name, err)
		}
		if !reflect.DeepEqual(tc.fresh, tc.saved) {
			t.Errorf("%s: restored buffer differs from the saved one:\nrestored: %+v\nsaved:    %+v", tc.name, tc.fresh, tc.saved)
		}
	}
}
