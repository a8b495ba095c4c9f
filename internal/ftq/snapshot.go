package ftq

import (
	"clgp/internal/isa"
	"clgp/internal/snap"
)

// ftqTag opens the FTQ section of a snapshot payload ("FTQS").
const ftqTag uint32 = 0x53515446

// cltqTag opens the CLTQ section ("CLTQ").
const cltqTag uint32 = 0x51544C43

// maxEntries bounds a decoded queue length.
const maxEntries = 1 << 20

// SaveState serialises the FTQ's queued blocks in FIFO order.
func (q *FTQ) SaveState(e *snap.Encoder) {
	e.Tag(ftqTag)
	e.Int(len(q.blocks))
	e.Int(q.n)
	for i := 0; i < q.n; i++ {
		fb := q.blocks[(q.head+i)%len(q.blocks)]
		e.U64(uint64(fb.Start))
		e.Int(fb.NumInsts)
		e.U64(uint64(fb.Next))
		e.Bool(fb.EndsInBranch)
		e.Bool(fb.WrongPath)
		e.U64(fb.SeqID)
	}
}

// LoadState restores state saved by SaveState into an FTQ of the same
// capacity. The ring is re-based at zero, which is behaviour-neutral.
func (q *FTQ) LoadState(d *snap.Decoder) {
	d.Tag(ftqTag)
	capacity := d.Int()
	n := d.Count(maxEntries)
	if d.Err() != nil {
		return
	}
	if capacity != len(q.blocks) {
		d.Failf("ftq: capacity mismatch: snapshot %d, queue %d", capacity, len(q.blocks))
		return
	}
	if n > capacity {
		d.Failf("ftq: %d queued blocks exceed capacity %d", n, capacity)
		return
	}
	q.head = 0
	q.n = n
	for i := 0; i < n; i++ {
		q.blocks[i] = FetchBlock{
			Start:        isa.Addr(d.U64()),
			NumInsts:     d.Int(),
			Next:         isa.Addr(d.U64()),
			EndsInBranch: d.Bool(),
			WrongPath:    d.Bool(),
			SeqID:        d.U64(),
		}
	}
}

// SaveState serialises the CLTQ's line entries in FIFO order plus the block
// accounting and the prefetched-prefix scan hint. The QueuedLines scratch
// buffer is dead state and not saved.
func (q *CLTQ) SaveState(e *snap.Encoder) {
	e.Tag(cltqTag)
	e.Int(q.n)
	for i := 0; i < q.n; i++ {
		en := q.at(i)
		e.U64(uint64(en.Line))
		e.U64(uint64(en.Start))
		e.Int(en.NumInsts)
		e.U64(uint64(en.Next))
		e.Bool(en.LastOfBlock)
		e.Bool(en.EndsInBranch)
		e.Bool(en.WrongPath)
		e.U64(en.BlockID)
		e.Bool(en.Prefetched)
		e.Bool(en.Occupied)
	}
	e.Int(q.blockCount)
	e.U64(q.lastBlockID)
	e.Bool(q.haveLastBlock)
	e.Int(q.scanHint)
}

// LoadState restores state saved by SaveState. The ring is re-based at zero;
// ring capacity is a behaviour-neutral implementation detail, so any stored
// entry count within the block bound is accepted.
func (q *CLTQ) LoadState(d *snap.Decoder) {
	d.Tag(cltqTag)
	n := d.Count(maxEntries)
	if d.Err() != nil {
		return
	}
	if len(q.entries) < n {
		q.entries = make([]CLTQEntry, max(16, n))
	}
	q.head = 0
	q.n = n
	for i := 0; i < n; i++ {
		q.entries[i] = CLTQEntry{
			Line:         isa.Addr(d.U64()),
			Start:        isa.Addr(d.U64()),
			NumInsts:     d.Int(),
			Next:         isa.Addr(d.U64()),
			LastOfBlock:  d.Bool(),
			EndsInBranch: d.Bool(),
			WrongPath:    d.Bool(),
			BlockID:      d.U64(),
			Prefetched:   d.Bool(),
			Occupied:     d.Bool(),
		}
		// Push never splits a block into an empty line or one holding more
		// instructions than fit in it.
		if got := q.entries[i].NumInsts; d.Err() == nil && (got < 1 || got > q.lineSize/isa.InstBytes) {
			d.Failf("cltq: entry %d holds %d instructions, want 1..%d", i, got, q.lineSize/isa.InstBytes)
		}
	}
	q.blockCount = d.Int()
	q.lastBlockID = d.U64()
	q.haveLastBlock = d.Bool()
	q.scanHint = d.Int()
	if d.Err() == nil && (q.blockCount < 0 || q.blockCount > q.blockCapacity) {
		d.Failf("cltq: block count %d outside [0, %d]", q.blockCount, q.blockCapacity)
	}
	if d.Err() == nil && (q.scanHint < 0 || q.scanHint > q.n) {
		d.Failf("cltq: scan hint %d outside [0, %d]", q.scanHint, q.n)
	}
}
