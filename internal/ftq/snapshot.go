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

// Walk walks the FTQ's queued blocks in FIFO order. A loaded queue must
// match the receiving one's capacity; loading re-bases the ring at zero,
// which is behaviour-neutral.
func (q *FTQ) Walk(w *snap.Walker) {
	w.Tag(ftqTag)
	capacity, n := len(q.blocks), q.n
	w.Int(&capacity)
	w.Count(&n, maxEntries)
	if w.Err() != nil {
		return
	}
	if capacity != len(q.blocks) {
		w.Failf("ftq: capacity mismatch: snapshot %d, queue %d", capacity, len(q.blocks))
		return
	}
	if n > capacity {
		w.Failf("ftq: %d queued blocks exceed capacity %d", n, capacity)
		return
	}
	if w.Loading() {
		q.head, q.n = 0, n
	}
	for i := 0; i < n; i++ {
		fb := &q.blocks[(q.head+i)%len(q.blocks)]
		snap.Word(w, &fb.Start)
		w.Int(&fb.NumInsts)
		snap.Word(w, &fb.Next)
		w.Bool(&fb.EndsInBranch)
		w.Bool(&fb.WrongPath)
		w.U64(&fb.SeqID)
	}
}

// Walk walks the CLTQ's line entries in FIFO order plus the block accounting
// and the prefetched-prefix scan hint. The QueuedLines scratch buffer is
// dead state and not saved. Loading re-bases the ring at zero; ring
// capacity is a behaviour-neutral implementation detail, so any stored
// entry count within the block bound is accepted.
func (q *CLTQ) Walk(w *snap.Walker) {
	w.Tag(cltqTag)
	n := q.n
	w.Count(&n, maxEntries)
	if w.Err() != nil {
		return
	}
	if w.Loading() {
		if len(q.entries) < n {
			q.entries = make([]CLTQEntry, max(16, n))
		}
		q.head, q.n = 0, n
	}
	for i := 0; i < n; i++ {
		en := q.at(i)
		snap.Word(w, &en.Line)
		snap.Word(w, &en.Start)
		w.Int(&en.NumInsts)
		snap.Word(w, &en.Next)
		w.Bool(&en.LastOfBlock)
		w.Bool(&en.EndsInBranch)
		w.Bool(&en.WrongPath)
		w.U64(&en.BlockID)
		w.Bool(&en.Prefetched)
		w.Bool(&en.Occupied)
	}
	w.Int(&q.blockCount)
	w.U64(&q.lastBlockID)
	w.Bool(&q.haveLastBlock)
	w.Int(&q.scanHint)
	if w.Loading() {
		q.check(w)
	}
}

// check rejects loaded CLTQ state Push and Pop never produce: an entry
// holding no instructions or more than fit in its line, a block count past
// the capacity, or a scan hint past the queue.
func (q *CLTQ) check(w *snap.Walker) {
	for i := 0; i < q.n && w.Err() == nil; i++ {
		if got := q.at(i).NumInsts; got < 1 || got > q.lineSize/isa.InstBytes {
			w.Failf("cltq: entry %d holds %d instructions, want 1..%d", i, got, q.lineSize/isa.InstBytes)
		}
	}
	if w.Err() == nil && (q.blockCount < 0 || q.blockCount > q.blockCapacity) {
		w.Failf("cltq: block count %d outside [0, %d]", q.blockCount, q.blockCapacity)
	}
	if w.Err() == nil && (q.scanHint < 0 || q.scanHint > q.n) {
		w.Failf("cltq: scan hint %d outside [0, %d]", q.scanHint, q.n)
	}
}
