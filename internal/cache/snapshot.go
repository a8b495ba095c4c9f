package cache

import "clgp/internal/snap"

// stateTag opens the cache section of a snapshot payload ("CACH").
const stateTag uint32 = 0x48434143

// Walk walks the cache's mutable state: every way's valid bit, tag and LRU
// stamp, the array occupancy, and the demand statistics. Geometry (set
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
	// Two port words follow busyUntil in the format: the start cycle of the
	// last Occupy and an access count of 1, or 0 and 0 before the first.
	// Both follow from busyUntil, so a load checks them against it (and a
	// busyUntil below one latency, which no Occupy leaves, wraps last).
	var last uint64
	var n int
	if c.busyUntil != 0 {
		last, n = c.busyUntil-uint64(c.cfg.Latency), 1
	}
	gotLast, gotN := last, n
	w.U64(&gotLast)
	w.Int(&gotN)
	if w.Loading() && w.Err() == nil && (gotLast != last || gotN != n || last > c.busyUntil) {
		w.Failf("cache %s: port words (%d, %d) do not follow from busy-until cycle %d",
			c.cfg.Name, gotLast, gotN, c.busyUntil)
		return
	}
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
