package cache

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"clgp/internal/isa"
	"clgp/internal/snap"
)

// seal wraps the cache's saved state in a snapshot container.
func seal(c *Cache) []byte {
	return snap.Seal(snap.Meta{Workload: "cache-test"}, func(e *snap.Encoder) { c.Walk(snap.Saver(e)) })
}

// load opens a container and restores it into c, returning the decoder's
// verdict (including any trailing bytes).
func load(t *testing.T, c *Cache, data []byte) error {
	t.Helper()
	_, payload, err := snap.Open(data)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	d := snap.NewDecoder(payload)
	c.Walk(snap.Loader(d))
	if d.Err() == nil && d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after cache state", d.Remaining())
	}
	return d.Err()
}

// exercise drives a random mix of demand lookups, fills and invalidations
// over a footprint a few times the cache's capacity, returning a digest of
// the outcomes.
func exercise(c *Cache, rng *rand.Rand, n int) []uint64 {
	lines := 4 * c.Lines()
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		addr := isa.Addr(rng.Intn(lines) * c.cfg.LineBytes)
		switch op := rng.Intn(8); {
		case op < 4:
			if c.Lookup(addr) {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		case op < 7:
			ev, had := c.Insert(addr)
			if had {
				out = append(out, uint64(ev)|1)
			} else {
				out = append(out, 2)
			}
		default:
			if c.Invalidate(addr) {
				out = append(out, 3)
			} else {
				out = append(out, 4)
			}
		}
	}
	return out
}

// TestSnapshotRoundTrip saves a cache after a random access history into a
// fresh cache of the same geometry: the restored cache must hold identical
// state and then behave identically, for direct-mapped, set-associative and
// fully-associative geometries of the flat set-major way table.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 0} {
		rng := rand.New(rand.NewSource(int64(assoc) + 1))
		c := smallCache(t, 4096, 64, assoc, 2)
		exercise(c, rng, 2000)
		c.Occupy(7)

		r := smallCache(t, 4096, 64, assoc, 2)
		if err := load(t, r, seal(c)); err != nil {
			t.Fatalf("assoc %d: load: %v", assoc, err)
		}
		if !reflect.DeepEqual(r, c) {
			t.Fatalf("assoc %d: restored cache differs from the saved one", assoc)
		}
		seed := rng.Int63()
		want := exercise(c, rand.New(rand.NewSource(seed)), 2000)
		got := exercise(r, rand.New(rand.NewSource(seed)), 2000)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("assoc %d: restored cache behaves differently after restore", assoc)
		}
	}
}

// Offsets into a cache payload: the section tag and four 8-byte header
// fields (stamp, busy-until, statistics), then 17 bytes per way (valid u8,
// tag u64, lru u64) in set-major order.
const (
	stampOff  = 4
	waysOff   = 4 + 4*8
	wayBytes  = 1 + 8 + 8
	wayTagOff = 1
	wayLRUOff = 1 + 8
)

// resealed saves c, lets mutate edit the payload, and re-seals it into a
// container with a valid checksum, so only the loading walk's own checks stand
// between the edit and the cache.
func resealed(t *testing.T, c *Cache, mutate func(payload []byte)) []byte {
	t.Helper()
	m, payload, err := snap.Open(seal(c))
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

// TestLoadStateRejectsImpossibleWays: a way stamped after the cache's own
// LRU counter, or a line resident in two ways of one set, can never arise
// from Lookup/Insert, so restoring either must fail loudly.
func TestLoadStateRejectsImpossibleWays(t *testing.T) {
	// 2-way, 2 sets: lines 0x0 and 0x80 both land in set 0.
	c := smallCache(t, 256, 64, 2, 1)
	c.Insert(0x0)
	c.Insert(0x80)

	if err := load(t, smallCache(t, 256, 64, 2, 1), resealed(t, c, func([]byte) {})); err != nil {
		t.Fatalf("unedited re-sealed state rejected: %v", err)
	}

	cases := map[string]func(p []byte){
		"lru after stamp": func(p []byte) {
			stamp := binary.LittleEndian.Uint64(p[stampOff:])
			binary.LittleEndian.PutUint64(p[waysOff+wayLRUOff:], stamp+1)
		},
		"duplicate tag in a set": func(p []byte) {
			copy(p[waysOff+wayBytes+wayTagOff:][:8], p[waysOff+wayTagOff:][:8])
		},
	}
	for name, mutate := range cases {
		err := load(t, smallCache(t, 256, 64, 2, 1), resealed(t, c, mutate))
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}
