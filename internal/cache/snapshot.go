package cache

import (
	"clgp/internal/isa"
	"clgp/internal/snap"
)

// stateTag opens the cache section of a snapshot payload ("CACH").
const stateTag uint32 = 0x48434143

// SaveState serialises the cache's mutable state — every way's tag/valid/LRU
// stamp, the timing occupancy, and the demand statistics — into e. Geometry
// (set count, associativity) is written for validation only; on restore it
// must match the receiving cache's configuration.
func (c *Cache) SaveState(e *snap.Encoder) {
	e.Tag(stateTag)
	e.Int(c.numSets)
	e.Int(c.cfg.Assoc)
	e.U64(c.stamp)
	e.U64(c.busyUntil)
	e.U64(c.portsUsedAt)
	e.Int(c.portsUsed)
	e.U64(c.accesses)
	e.U64(c.misses)
	for i := range c.ways {
		way := &c.ways[i]
		e.Bool(way.valid)
		e.U64(uint64(way.tag))
		e.U64(way.lru)
	}
}

// LoadState restores state saved by SaveState into a cache built from the
// same configuration. A geometry mismatch latches an error on d, and so does
// a way state the cache can never reach: an LRU stamp newer than the cache's
// stamp counter, or one line resident twice in a set.
func (c *Cache) LoadState(d *snap.Decoder) {
	d.Tag(stateTag)
	numSets := d.Int()
	assoc := d.Int()
	if d.Err() != nil {
		return
	}
	if numSets != c.numSets || assoc != c.cfg.Assoc {
		d.Failf("cache %s: geometry mismatch: snapshot %dx%d, cache %dx%d",
			c.cfg.Name, numSets, assoc, c.numSets, c.cfg.Assoc)
		return
	}
	c.stamp = d.U64()
	c.busyUntil = d.U64()
	c.portsUsedAt = d.U64()
	c.portsUsed = d.Int()
	c.accesses = d.U64()
	c.misses = d.U64()
	for s := 0; s < c.numSets && d.Err() == nil; s++ {
		ways := c.set(s)
		for i := range ways {
			w := &ways[i]
			w.valid = d.Bool()
			w.tag = isa.Addr(d.U64())
			w.lru = d.U64()
			if d.Err() != nil {
				return
			}
			if w.lru > c.stamp {
				d.Failf("cache %s: set %d way %d LRU stamp %d is newer than the cache stamp %d",
					c.cfg.Name, s, i, w.lru, c.stamp)
				return
			}
			for j := 0; w.valid && j < i; j++ {
				if ways[j].valid && ways[j].tag == w.tag {
					d.Failf("cache %s: set %d holds tag %#x in ways %d and %d",
						c.cfg.Name, s, uint64(w.tag), j, i)
					return
				}
			}
		}
	}
}
