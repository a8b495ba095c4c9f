package bpred

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"clgp/internal/isa"
	"clgp/internal/snap"
)

// snapTestConfig keeps the tables small enough to fill in a short test.
var snapTestConfig = Config{FirstLevelEntries: 16, SecondLevelEntries: 48, RASEntries: 4, MaxStreamLength: 32}

// seal wraps the predictor's saved state in a snapshot container.
func seal(p *Predictor) []byte {
	return snap.Seal(snap.Meta{Workload: "bpred-test"}, func(e *snap.Encoder) { p.Walk(snap.Saver(e)) })
}

// load opens a container and restores it into p, returning the decoder's
// verdict (including any trailing bytes).
func load(t *testing.T, p *Predictor, data []byte) error {
	t.Helper()
	_, payload, err := snap.Open(data)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	d := snap.NewDecoder(payload)
	p.Walk(snap.Loader(d))
	if d.Err() == nil && d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after predictor state", d.Remaining())
	}
	return d.Err()
}

// exercise trains and queries the predictor on a small set of recurring
// stream starts with varying behaviour, returning every prediction.
func exercise(p *Predictor, rng *rand.Rand, n int) []Prediction {
	out := make([]Prediction, 0, n)
	for i := 0; i < n; i++ {
		start := isa.Addr(0x1000 + rng.Intn(64)*isa.InstBytes*8)
		out = append(out, p.Predict(start))
		p.Train(Stream{
			Start:    start,
			NumInsts: 1 + rng.Intn(40),
			Next:     isa.Addr(0x1000 + rng.Intn(64)*isa.InstBytes*8),
			End:      EndClass(rng.Intn(int(EndReturn) + 1)),
		})
	}
	return out
}

// TestEntryIs32Bytes pins the stream table entry layout: word-sized fields
// first, the three one-byte fields packed into the last word.
func TestEntryIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 32 {
		t.Errorf("entry is %d bytes, want 32", n)
	}
}

// TestSnapshotRoundTrip saves a trained predictor into a fresh one: the
// restored predictor must hold identical tables, RAS, history and counters,
// and then predict identically.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := MustNew(snapTestConfig)
	exercise(p, rng, 3000)

	r := MustNew(snapTestConfig)
	if err := load(t, r, seal(p)); err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(r, p) {
		t.Fatal("restored predictor differs from the saved one")
	}
	seed := rng.Int63()
	want := exercise(p, rand.New(rand.NewSource(seed)), 3000)
	got := exercise(r, rand.New(rand.NewSource(seed)), 3000)
	if !reflect.DeepEqual(got, want) {
		t.Error("restored predictor predicts differently after restore")
	}
}

// Offsets into a predictor payload: the section tag, then the first-level
// table's entries, 27 bytes each (valid u8, tag u64, numInsts i64, next
// u64, end u8, conf u8).
const (
	entriesOff  = 4
	numInstsOff = 1 + 8
	endOff      = 1 + 8 + 8 + 8
	confOff     = endOff + 1
)

// resealed saves p, lets mutate edit the payload, and re-seals it into a
// container with a valid checksum, so only the loading walk's own checks stand
// between the edit and the predictor.
func resealed(t *testing.T, p *Predictor, mutate func(payload []byte)) []byte {
	t.Helper()
	m, payload, err := snap.Open(seal(p))
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

// TestLoadStateRejectsImpossibleEntries: a confidence past the 2-bit
// counter, an unknown end class or a negative stream length can never come
// out of Train, so restoring any of them must fail loudly.
func TestLoadStateRejectsImpossibleEntries(t *testing.T) {
	p := MustNew(snapTestConfig)
	exercise(p, rand.New(rand.NewSource(5)), 500)

	if err := load(t, MustNew(snapTestConfig), resealed(t, p, func([]byte) {})); err != nil {
		t.Fatalf("unedited re-sealed state rejected: %v", err)
	}

	cases := map[string]func(p []byte){
		"conf 4":            func(p []byte) { p[entriesOff+confOff] = 4 },
		"end past return":   func(p []byte) { p[entriesOff+endOff] = uint8(EndReturn) + 1 },
		"negative numInsts": func(p []byte) { binary.LittleEndian.PutUint64(p[entriesOff+numInstsOff:], ^uint64(0)) },
	}
	for name, mutate := range cases {
		err := load(t, MustNew(snapTestConfig), resealed(t, p, mutate))
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}
