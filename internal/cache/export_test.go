package cache

import "clgp/internal/isa"

// Test helpers: views and controls of a cache that only this package's
// tests use.

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Lines returns the total number of lines the cache can hold.
func (c *Cache) Lines() int { return c.cfg.SizeBytes / c.cfg.LineBytes }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.numSets }

// Flush invalidates the entire cache and resets timing occupancy (but keeps
// statistics).
func (c *Cache) Flush() {
	clear(c.ways)
	c.busyUntil = 0
}

// Contents returns all resident line addresses, in no particular order.
func (c *Cache) Contents() []isa.Addr {
	var out []isa.Addr
	for i, w := range c.ways {
		if w.valid {
			out = append(out, c.lineAddr(i/c.cfg.Assoc, w.tag))
		}
	}
	return out
}

// ResidentCount returns the number of valid lines.
func (c *Cache) ResidentCount() int { return len(c.Contents()) }

// MissRate returns misses/accesses (0 when no accesses).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}
