package cache

import "clgp/internal/snap"

// stateTag opens the cache section of a snapshot payload ("CACH").
const stateTag uint32 = 0x48434143

// Walk walks the cache's mutable state: every way's valid bit, tag and LRU
// stamp, the timing occupancy, and the demand statistics. Geometry (set
// count, associativity) travels for validation only; a loaded snapshot's
// must match the receiving cache's configuration, and so must its way
// states (see check).
func (c *Cache) Walk(w *snap.Walker) {
	w.Tag(stateTag)
	numSets, assoc := c.numSets, c.cfg.Assoc
	w.Int(&numSets)
	w.Int(&assoc)
	if w.Err() != nil {
		return
	}
	if numSets != c.numSets || assoc != c.cfg.Assoc {
		w.Failf("cache %s: geometry mismatch: snapshot %dx%d, cache %dx%d",
			c.cfg.Name, numSets, assoc, c.numSets, c.cfg.Assoc)
		return
	}
	w.U64(&c.stamp)
	w.U64(&c.busyUntil)
	w.U64(&c.portsUsedAt)
	w.Int(&c.portsUsed)
	w.U64(&c.accesses)
	w.U64(&c.misses)
	for i := range c.ways {
		way := &c.ways[i]
		w.Bool(&way.valid)
		snap.Word(w, &way.tag)
		w.U64(&way.lru)
	}
	if w.Loading() {
		c.check(w)
	}
}

// check rejects loaded way states the cache can never reach: an LRU stamp
// newer than the cache's stamp counter, or one line resident twice in a set.
func (c *Cache) check(w *snap.Walker) {
	for s := 0; s < c.numSets && w.Err() == nil; s++ {
		ways := c.set(s)
		for i := range ways {
			way := &ways[i]
			if way.lru > c.stamp {
				w.Failf("cache %s: set %d way %d LRU stamp %d is newer than the cache stamp %d",
					c.cfg.Name, s, i, way.lru, c.stamp)
				return
			}
			for j := 0; way.valid && j < i; j++ {
				if ways[j].valid && ways[j].tag == way.tag {
					w.Failf("cache %s: set %d holds tag %#x in ways %d and %d",
						c.cfg.Name, s, uint64(way.tag), j, i)
					return
				}
			}
		}
	}
}
