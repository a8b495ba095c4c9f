package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clgp/internal/isa"
)

func smallCache(t *testing.T, size, line, assoc, lat int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", SizeBytes: size, LineBytes: line, Assoc: assoc, Latency: lat})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "zero", SizeBytes: 0, LineBytes: 64},
		{Name: "negline", SizeBytes: 1024, LineBytes: -4},
		{Name: "npo2", SizeBytes: 1024, LineBytes: 48},
		{Name: "notmult", SizeBytes: 100, LineBytes: 64},
		{Name: "baddiv", SizeBytes: 3 * 64, LineBytes: 64, Assoc: 2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %q should be rejected", cfg.Name)
		}
	}
	// Defaults: latency >= 1, assoc <= lines.
	c, err := New(Config{Name: "d", SizeBytes: 256, LineBytes: 64, Assoc: 99, Latency: 0})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got := c.Config()
	if got.Assoc != 4 || got.Latency != 1 {
		t.Errorf("normalised config = %+v", got)
	}
	if c.Lines() != 4 || c.Sets() != 1 {
		t.Errorf("geometry: lines %d sets %d", c.Lines(), c.Sets())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustNew should panic on invalid config")
		}
	}()
	MustNew(Config{Name: "bad", SizeBytes: -1, LineBytes: 64})
}

func TestLookupInsertBasics(t *testing.T) {
	c := smallCache(t, 4*64, 64, 2, 3)
	if c.Lookup(0x1000) {
		t.Errorf("empty cache should miss")
	}
	c.Insert(0x1000)
	if !c.Lookup(0x1000) {
		t.Errorf("inserted line should hit")
	}
	if !c.Lookup(0x1004) {
		t.Errorf("address in the same line should hit")
	}
	if c.Lookup(0x1040) {
		t.Errorf("different line should miss")
	}
	if c.Accesses() != 4 || c.Misses() != 2 {
		t.Errorf("stats = %d accesses, %d misses", c.Accesses(), c.Misses())
	}
	if c.MissRate() != 0.5 {
		t.Errorf("MissRate = %v", c.MissRate())
	}
	if c.Latency() != 3 {
		t.Errorf("Latency = %d", c.Latency())
	}
	empty := smallCache(t, 64, 64, 1, 1)
	if empty.MissRate() != 0 {
		t.Errorf("empty MissRate should be 0")
	}
}

func TestLRUReplacementWithinSet(t *testing.T) {
	// Fully associative, 4 lines.
	c := smallCache(t, 4*64, 64, 0, 1)
	addrs := []isa.Addr{0x0, 0x40, 0x80, 0xc0}
	for _, a := range addrs {
		c.Insert(a)
	}
	// Touch 0x0 so 0x40 becomes LRU.
	if !c.Lookup(0x0) {
		t.Fatalf("0x0 should be resident")
	}
	evicted, had := c.Insert(0x100)
	if !had || evicted != 0x40 {
		t.Errorf("evicted %#x (had=%v), want 0x40", evicted, had)
	}
	if c.Probe(0x40) {
		t.Errorf("0x40 should have been evicted")
	}
	if !c.Probe(0x0) || !c.Probe(0x80) || !c.Probe(0xc0) || !c.Probe(0x100) {
		t.Errorf("resident set wrong: %v", c.Contents())
	}
}

func TestInsertExistingRefreshesLRU(t *testing.T) {
	c := smallCache(t, 2*64, 64, 0, 1)
	c.Insert(0x0)
	c.Insert(0x40)
	// Re-insert 0x0: should refresh, not evict, so next insert evicts 0x40.
	if _, had := c.Insert(0x0); had {
		t.Errorf("re-inserting resident line should not evict")
	}
	evicted, had := c.Insert(0x80)
	if !had || evicted != 0x40 {
		t.Errorf("evicted %#x, want 0x40", evicted)
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := smallCache(t, 2*64, 64, 0, 1)
	c.Insert(0x0)
	c.Insert(0x40)
	// Probe 0x0 many times; it must NOT refresh LRU, so 0x0 is still evicted
	// first (it was inserted first).
	for i := 0; i < 10; i++ {
		if !c.Probe(0x0) {
			t.Fatalf("probe should hit")
		}
	}
	if c.Accesses() != 0 {
		t.Errorf("probe must not count as an access")
	}
	evicted, _ := c.Insert(0x80)
	if evicted != 0x0 {
		t.Errorf("evicted %#x, want 0x0 (probe refreshed LRU?)", evicted)
	}
}

func TestSetIndexingIsolation(t *testing.T) {
	// 2-way, 2 sets: lines 0x0 and 0x80 map to set 0; 0x40 and 0xc0 to set 1.
	c := smallCache(t, 4*64, 64, 2, 1)
	if c.Sets() != 2 {
		t.Fatalf("Sets = %d, want 2", c.Sets())
	}
	c.Insert(0x0)
	c.Insert(0x80)
	c.Insert(0x100) // set 0 again: evicts 0x0
	if c.Probe(0x0) {
		t.Errorf("0x0 should be evicted from set 0")
	}
	// Set 1 is untouched.
	c.Insert(0x40)
	c.Insert(0xc0)
	if !c.Probe(0x40) || !c.Probe(0xc0) || !c.Probe(0x80) || !c.Probe(0x100) {
		t.Errorf("set isolation broken: %v", c.Contents())
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := smallCache(t, 4*64, 64, 0, 2)
	c.Insert(0x0)
	c.Insert(0x40)
	if !c.Invalidate(0x40) {
		t.Errorf("invalidate resident line should return true")
	}
	if c.Invalidate(0x40) {
		t.Errorf("invalidate absent line should return false")
	}
	if c.ResidentCount() != 1 {
		t.Errorf("ResidentCount = %d", c.ResidentCount())
	}
	c.Insert(0x80)
	c.Flush()
	if c.ResidentCount() != 0 || len(c.Contents()) != 0 {
		t.Errorf("flush left lines resident")
	}
	// Statistics survive a flush.
	c.Lookup(0x0)
	if c.Accesses() == 0 {
		t.Errorf("stats should survive flush")
	}
}

func TestLineAddrRoundTrip(t *testing.T) {
	// Insert then check that Contents reports the line-aligned addresses.
	c := smallCache(t, 8*64, 64, 2, 1)
	addrs := []isa.Addr{0x1004, 0x2048, 0x30c0}
	for _, a := range addrs {
		c.Insert(a)
	}
	got := make(map[isa.Addr]bool)
	for _, a := range c.Contents() {
		got[a] = true
	}
	for _, a := range addrs {
		if !got[isa.LineAddr(a, 64)] {
			t.Errorf("line %#x missing from contents %v", isa.LineAddr(a, 64), c.Contents())
		}
	}
}

// TestNonPipelinedOccupancy: the array serves one access at a time. An
// access starts at max(now, busyUntil) and holds the array for the full
// latency, so back-to-back requests queue behind each other, and a request
// after the array frees up starts at once.
func TestNonPipelinedOccupancy(t *testing.T) {
	c := smallCache(t, 1024, 64, 2, 3)
	for _, step := range []struct{ now, done uint64 }{
		{10, 13}, // idle array: starts at once
		{11, 16}, // busy until 13
		{12, 19}, // busy until 16
		{19, 22}, // frees up exactly as requested
		{40, 43}, // idle again
	} {
		if got := c.Occupy(step.now); got != step.done {
			t.Errorf("Occupy(%d) = %d, want %d", step.now, got, step.done)
		}
	}
	if c.Occupy(0) != 46 {
		t.Errorf("a request from the past should still queue behind the last access")
	}
}

// TestResidencyBound checks the fundamental capacity invariant under random
// insertions: the cache never holds more lines than its capacity, and a
// just-inserted line is always resident.
func TestResidencyBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(Config{Name: "q", SizeBytes: 8 * 64, LineBytes: 64, Assoc: 4, Latency: 1})
		for i := 0; i < 200; i++ {
			a := isa.Addr(rng.Intn(1<<14)) &^ 0x3f
			c.Insert(a)
			if !c.Probe(a) {
				return false
			}
			if c.ResidentCount() > c.Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLRUStackProperty: with a fully-associative cache of N lines, accessing
// N distinct lines and then re-accessing them in the same order must hit
// every time (LRU keeps exactly the most recent N).
func TestLRUStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		c := MustNew(Config{Name: "lru", SizeBytes: n * 64, LineBytes: 64, Latency: 1})
		used := make(map[isa.Addr]bool)
		var addrs []isa.Addr
		for len(addrs) < n {
			a := isa.Addr(rng.Intn(1<<16)) &^ 0x3f
			if !used[a] {
				used[a] = true
				addrs = append(addrs, a)
			}
		}
		for _, a := range addrs {
			c.Insert(a)
		}
		for _, a := range addrs {
			if !c.Lookup(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInclusionOfSmallerCache: any sequence of lookups+inserts served by a
// larger fully-associative cache hits at least as often as the same sequence
// on a smaller one (a classic stack-property corollary for LRU).
func TestInclusionOfSmallerCache(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := MustNew(Config{Name: "s", SizeBytes: 4 * 64, LineBytes: 64, Latency: 1})
		big := MustNew(Config{Name: "b", SizeBytes: 16 * 64, LineBytes: 64, Latency: 1})
		for i := 0; i < 500; i++ {
			// Working set of 12 lines: fits in big, thrashes small.
			a := isa.Addr(rng.Intn(12)) * 64
			if !small.Lookup(a) {
				small.Insert(a)
			}
			if !big.Lookup(a) {
				big.Insert(a)
			}
		}
		return big.Misses() <= small.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestReleaseRecyclesZeroedWays: a cache released full of lines hands its
// ways to the next cache of the same geometry, which starts empty; a second
// release of the same cache is a no-op, so the ways go to one cache only.
func TestReleaseRecyclesZeroedWays(t *testing.T) {
	const size = 3 * 4 * 64 // a geometry no other test releases
	c := smallCache(t, size, 64, 4, 1)
	for i := 0; i < 64; i++ {
		c.Lookup(isa.Addr(i * 64))
		c.Insert(isa.Addr(i * 64))
	}
	if c.ResidentCount() != c.Lines() {
		t.Fatalf("warm cache holds %d of %d lines", c.ResidentCount(), c.Lines())
	}
	dirty := &c.ways[0]
	c.Release()
	c.Release()
	if c.ways != nil {
		t.Fatal("Release left the cache's ways in place")
	}
	a, b := smallCache(t, size, 64, 4, 1), smallCache(t, size, 64, 4, 1)
	if &a.ways[0] != dirty {
		t.Fatal("the next cache of the same geometry did not reuse the released ways")
	}
	if &b.ways[0] == dirty {
		t.Fatal("a double release handed one way array to two caches")
	}
	for i, w := range a.ways {
		if w != (way{}) {
			t.Fatalf("recycled way %d not zeroed: %+v", i, w)
		}
	}
	if a.Lookup(0) || a.Accesses() != 1 || a.Misses() != 1 {
		t.Fatal("a cache on recycled ways does not start cold")
	}
}
