package prebuffer

import "clgp/internal/snap"

// stateTag opens a buffer section of a snapshot payload ("PBUF").
const stateTag uint32 = 0x46554250

// walk walks the shared buffer mechanics: every entry verbatim, the LRU
// stamp and the statistics. A loaded buffer must match the receiving one's
// size.
func (b *Buffer) walk(w *snap.Walker) {
	w.Tag(stateTag)
	n := len(b.entries)
	w.Int(&n)
	if w.Err() != nil {
		return
	}
	if n != len(b.entries) {
		w.Failf("prebuffer %s: size mismatch: snapshot %d, buffer %d", b.name, n, len(b.entries))
		return
	}
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

// Walk walks the FDP prefetch buffer (shared mechanics plus the free-slot
// counter). Loading rejects consumers on any entry (only the prestage
// buffer counts them) and a free count that disagrees with the entries.
func (pb *PrefetchBuffer) Walk(w *snap.Walker) {
	pb.walk(w)
	w.Int(&pb.free)
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
	if w.Err() != nil {
		return
	}
	if scan := pb.freeSlotsScan(); pb.free != scan {
		w.Failf("prebuffer %s: free count %d, entries say %d", pb.name, pb.free, scan)
	}
}

// Walk walks the CLGP prestage buffer (shared mechanics plus the
// replaceable-slot counter). Loading rejects a replaceable count that
// disagrees with the entries.
func (sb *PrestageBuffer) Walk(w *snap.Walker) {
	sb.walk(w)
	w.Int(&sb.replaceable)
	if !w.Loading() {
		return
	}
	sb.check(w)
	if scan := sb.replaceableSlotsScan(); w.Err() == nil && sb.replaceable != scan {
		w.Failf("prebuffer %s: replaceable count %d, entries say %d", sb.name, sb.replaceable, scan)
	}
}
