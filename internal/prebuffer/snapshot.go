package prebuffer

import "clgp/internal/snap"

// stateTag opens a buffer section of a snapshot payload ("PBUF").
const stateTag uint32 = 0x46554250

// walk walks the shared buffer mechanics: every entry verbatim, the LRU
// stamp and the statistics. The entry count is the receiving buffer's,
// which Restore's warm key pins.
func (b *Buffer) walk(w *snap.Walker) {
	w.Tag(stateTag)
	for i := range b.entries {
		en := &b.entries[i]
		snap.Word(w, &en.line)
		w.Bool(&en.allocated)
		w.Bool(&en.valid)
		w.Int(&en.consumers)
		w.Bool(&en.used)
		w.U64(&en.lru)
		w.Bool(&en.available)
	}
	w.U64(&b.stamp)
	w.U64(&b.hits)
	w.U64(&b.misses)
	w.U64(&b.allocs)
	w.U64(&b.evictions)
	w.U64(&b.usedLines)
}

// check rejects loaded entries the buffer cannot reach: a negative
// consumers counter, or a line allocated in two entries (find would only
// ever reach the first of them).
func (b *Buffer) check(w *snap.Walker) {
	for i := range b.entries {
		en := &b.entries[i]
		if w.Err() != nil {
			return
		}
		if en.consumers < 0 {
			w.Failf("prebuffer %s: entry %d has %d consumers", b.name, i, en.consumers)
			return
		}
		if !en.allocated {
			continue
		}
		if j := b.find(en.line); j < i {
			w.Failf("prebuffer %s: line %#x allocated in entries %d and %d", b.name, uint64(en.line), j, i)
			return
		}
	}
}

// Walk walks the FDP prefetch buffer. Loading rejects consumers on any
// entry (only the prestage buffer counts them) and rebuilds the free-slot
// counter from the entries.
func (pb *PrefetchBuffer) Walk(w *snap.Walker) {
	pb.walk(w)
	if !w.Loading() {
		return
	}
	pb.check(w)
	for i := range pb.entries {
		if c := pb.entries[i].consumers; w.Err() == nil && c != 0 {
			w.Failf("prebuffer %s: entry %d has %d consumers", pb.name, i, c)
			return
		}
	}
	pb.free = pb.freeSlotsScan()
}

// Walk walks the CLGP prestage buffer. Loading rebuilds the
// replaceable-slot counter from the entries.
func (sb *PrestageBuffer) Walk(w *snap.Walker) {
	sb.walk(w)
	if w.Loading() {
		sb.check(w)
		sb.replaceable = sb.replaceableSlotsScan()
	}
}
