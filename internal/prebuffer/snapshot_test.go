package prebuffer

import (
	"encoding/binary"
	"errors"
	"testing"

	"clgp/internal/snap"
)

// state is what both buffer flavours save and load.
type state interface {
	Walk(*snap.Walker)
}

// Offsets into a buffer payload: the section tag and the entry count, then
// 28 bytes per entry (line u64, allocated u8, valid u8, consumers i64,
// used u8, lru u64, available u8), six 8-byte counters, and the flavour's
// own count (free or replaceable).
const (
	entriesOff   = 4 + 8
	entryBytes   = 8 + 1 + 1 + 8 + 1 + 8 + 1
	consumersOff = 8 + 1 + 1
)

// countOff returns the offset of the flavour's count in an n-entry payload.
func countOff(n int) int { return entriesOff + n*entryBytes + 6*8 }

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

// addInt64 adds delta to the 8-byte integer at off.
func addInt64(p []byte, off int, delta int64) {
	putInt64(p, off, int64(binary.LittleEndian.Uint64(p[off:]))+delta)
}

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

// TestLoadStateRejectsImpossibleEntries: a line allocated in two entries, a
// negative consumers counter, and a replaceable count that disagrees with
// the entries can never arise from the prestage buffer's own operations, so
// restoring any of them must fail loudly.
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
		"replaceable disagrees with the entries": func(p []byte) {
			addInt64(p, countOff(n), 1)
		},
	})
}

// TestPrefetchLoadStateRejectsImpossibleEntries: the same for the prefetch
// buffer, which never counts consumers and whose free count is the number
// of unallocated or available entries.
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
		"free disagrees with the entries": func(p []byte) {
			addInt64(p, countOff(n), -1)
		},
	})
}
