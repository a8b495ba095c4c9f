package prebuffer

import (
	"clgp/internal/isa"
	"clgp/internal/snap"
)

// stateTag opens a buffer section of a snapshot payload ("PBUF").
const stateTag uint32 = 0x46554250

// saveState serialises the shared buffer mechanics: every entry verbatim,
// the LRU stamp and the statistics.
func (b *Buffer) saveState(e *snap.Encoder) {
	e.Tag(stateTag)
	e.Int(len(b.entries))
	for i := range b.entries {
		en := &b.entries[i]
		e.U64(uint64(en.line))
		e.Bool(en.allocated)
		e.Bool(en.valid)
		e.Int(en.consumers)
		e.Bool(en.used)
		e.U64(en.lru)
		e.Bool(en.available)
	}
	e.U64(b.stamp)
	e.U64(b.hits)
	e.U64(b.misses)
	e.U64(b.allocs)
	e.U64(b.evictions)
	e.U64(b.usedLines)
}

// loadState restores state saved by saveState into a buffer of the same
// size. It rejects entries the buffer cannot reach: a negative consumers
// counter, or a line allocated in two entries (find would only ever reach
// the first of them).
func (b *Buffer) loadState(d *snap.Decoder) {
	d.Tag(stateTag)
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(b.entries) {
		d.Failf("prebuffer %s: size mismatch: snapshot %d, buffer %d", b.name, n, len(b.entries))
		return
	}
	for i := range b.entries {
		en := &b.entries[i]
		en.line = isa.Addr(d.U64())
		en.allocated = d.Bool()
		en.valid = d.Bool()
		en.consumers = d.Int()
		en.used = d.Bool()
		en.lru = d.U64()
		en.available = d.Bool()
	}
	b.stamp = d.U64()
	b.hits = d.U64()
	b.misses = d.U64()
	b.allocs = d.U64()
	b.evictions = d.U64()
	b.usedLines = d.U64()
	if d.Err() != nil {
		return
	}
	for i := range b.entries {
		en := &b.entries[i]
		if en.consumers < 0 {
			d.Failf("prebuffer %s: entry %d has %d consumers", b.name, i, en.consumers)
			return
		}
		if !en.allocated {
			continue
		}
		if j := b.find(en.line); j < i {
			d.Failf("prebuffer %s: line %#x allocated in entries %d and %d", b.name, uint64(en.line), j, i)
			return
		}
	}
}

// SaveState serialises the FDP prefetch buffer (shared mechanics plus the
// free-slot counter).
func (pb *PrefetchBuffer) SaveState(e *snap.Encoder) {
	pb.saveState(e)
	e.Int(pb.free)
}

// LoadState restores state saved by SaveState. It rejects consumers on any
// entry (only the prestage buffer counts them) and a free count that
// disagrees with the entries.
func (pb *PrefetchBuffer) LoadState(d *snap.Decoder) {
	pb.loadState(d)
	pb.free = d.Int()
	if d.Err() != nil {
		return
	}
	for i := range pb.entries {
		if c := pb.entries[i].consumers; c != 0 {
			d.Failf("prebuffer %s: entry %d has %d consumers", pb.name, i, c)
			return
		}
	}
	if scan := pb.freeSlotsScan(); pb.free != scan {
		d.Failf("prebuffer %s: free count %d, entries say %d", pb.name, pb.free, scan)
	}
}

// SaveState serialises the CLGP prestage buffer (shared mechanics plus the
// replaceable-slot counter).
func (sb *PrestageBuffer) SaveState(e *snap.Encoder) {
	sb.saveState(e)
	e.Int(sb.replaceable)
}

// LoadState restores state saved by SaveState. It rejects a replaceable
// count that disagrees with the entries.
func (sb *PrestageBuffer) LoadState(d *snap.Decoder) {
	sb.loadState(d)
	sb.replaceable = d.Int()
	if scan := sb.replaceableSlotsScan(); d.Err() == nil && sb.replaceable != scan {
		d.Failf("prebuffer %s: replaceable count %d, entries say %d", sb.name, sb.replaceable, scan)
	}
}
