// Package cache implements the set-associative cache model used for the L0,
// L1 instruction, L1 data and unified L2 caches of the simulator.
//
// The model tracks only tags (the simulator never needs data contents),
// true-LRU replacement per set, and a fixed hit latency. The one timing rule
// beyond the latency is the non-pipelined L1 I-cache's occupancy (Occupy):
// its array serves one access at a time, each for its full latency.
package cache

import (
	"fmt"

	"clgp/internal/freelist"
	"clgp/internal/isa"
)

// Config describes one cache structure.
type Config struct {
	// Name is used in error messages and reports.
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line (block) size.
	LineBytes int
	// Assoc is the set associativity. An Assoc <= 0 or an Assoc implying a
	// single set produces a fully-associative cache.
	Assoc int
	// Latency is the hit latency in cycles (>= 1).
	Latency int
}

// normalise fills defaults and validates.
func (c Config) normalise() (Config, error) {
	if c.SizeBytes <= 0 {
		return c, fmt.Errorf("cache %s: size must be positive, got %d", c.Name, c.SizeBytes)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return c, fmt.Errorf("cache %s: line size must be a positive power of two, got %d", c.Name, c.LineBytes)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return c, fmt.Errorf("cache %s: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if c.Assoc <= 0 || c.Assoc > lines {
		c.Assoc = lines // fully associative
	}
	if lines%c.Assoc != 0 {
		return c, fmt.Errorf("cache %s: %d lines not divisible by associativity %d", c.Name, lines, c.Assoc)
	}
	if c.Latency < 1 {
		c.Latency = 1
	}
	return c, nil
}

// way is one cache way within a set.
type way struct {
	valid bool
	tag   isa.Addr
	lru   uint64 // last-use stamp; higher is more recent
}

// Cache is a set-associative, true-LRU, tag-only cache model.
type Cache struct {
	cfg Config
	// ways holds every set's ways back to back: set s is
	// ways[s*Assoc : (s+1)*Assoc].
	ways    []way
	numSets int
	stamp   uint64
	// busyUntil is the cycle at which the array frees up after the last
	// Occupy (0 before the first).
	busyUntil uint64

	// Statistics.
	accesses uint64
	misses   uint64
}

// tables recycles the way arrays of released caches.
var tables freelist.Tables[way]

// New creates a cache from cfg. Its ways come zeroed, from released caches
// when there are any.
func New(cfg Config) (*Cache, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	return &Cache{cfg: cfg, ways: tables.Get(numSets * cfg.Assoc), numSets: numSets}, nil
}

// Release hands the ways back for the next cache to reuse and drops the
// cache's reference to them, so a later access panics instead of reading
// another cache's ways. Releasing twice is a no-op. A cache that is never
// released keeps its ways until the collector takes them.
func (c *Cache) Release() {
	tables.Put(c.ways)
	c.ways = nil
}

// Config returns the (normalised) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() int { return c.cfg.Latency }

// set returns the ways of set s.
func (c *Cache) set(s int) []way {
	return c.ways[s*c.cfg.Assoc : (s+1)*c.cfg.Assoc]
}

// index returns the set index and tag for an address.
func (c *Cache) index(addr isa.Addr) (int, isa.Addr) {
	line := uint64(addr) / uint64(c.cfg.LineBytes)
	set := int(line % uint64(c.numSets))
	tag := isa.Addr(line / uint64(c.numSets))
	return set, tag
}

// Probe reports whether the line containing addr is present, without
// updating LRU state or statistics. This models the extra tag port used by
// FDP's Enqueue Cache Probe Filtering.
func (c *Cache) Probe(addr isa.Addr) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return true
		}
	}
	return false
}

// Lookup performs a demand access for the line containing addr: it updates
// LRU on a hit and the access/miss statistics. It does not allocate on a
// miss (use Insert when the fill arrives).
func (c *Cache) Lookup(addr isa.Addr) bool {
	c.accesses++
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		w := &ways[i]
		if w.valid && w.tag == tag {
			c.stamp++
			w.lru = c.stamp
			return true
		}
	}
	c.misses++
	return false
}

// Insert fills the line containing addr, evicting the LRU way of its set if
// needed. It returns the evicted line address and whether an eviction of a
// valid line happened.
func (c *Cache) Insert(addr isa.Addr) (evicted isa.Addr, hadVictim bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	// If already present just refresh LRU.
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.stamp++
			ways[i].lru = c.stamp
			return 0, false
		}
	}
	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[victim].valid {
			break
		}
		if !ways[i].valid || ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	if ways[victim].valid {
		evicted = c.lineAddr(set, ways[victim].tag)
		hadVictim = true
	}
	c.stamp++
	ways[victim] = way{valid: true, tag: tag, lru: c.stamp}
	return evicted, hadVictim
}

// lineAddr reconstructs a line address from its set and tag.
func (c *Cache) lineAddr(set int, tag isa.Addr) isa.Addr {
	line := uint64(tag)*uint64(c.numSets) + uint64(set)
	return isa.Addr(line * uint64(c.cfg.LineBytes))
}

// Invalidate removes the line containing addr if present, returning whether
// it was present.
func (c *Cache) Invalidate(addr isa.Addr) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i] = way{}
			return true
		}
	}
	return false
}

// Accesses and Misses return the demand-access statistics.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of demand misses recorded by Lookup.
func (c *Cache) Misses() uint64 { return c.misses }

// Occupy reserves the array for an access requested at cycle now and
// returns the cycle its result is available. The array serves one access
// at a time: the access starts once the previous one has finished, at
// max(now, busyUntil), and holds the array for Latency cycles.
func (c *Cache) Occupy(now uint64) (done uint64) {
	c.busyUntil = max(now, c.busyUntil) + uint64(c.cfg.Latency)
	return c.busyUntil
}
