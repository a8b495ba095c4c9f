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

// Walk walks the FTQ's queued blocks in FIFO order. The capacity is the
// receiving queue's, which Restore's warm key pins, and bounds the loaded
// block count; loading re-bases the ring at zero, which is
// behaviour-neutral.
func (q *FTQ) Walk(w *snap.Walker) {
	w.Tag(ftqTag)
	n := q.n
	w.Count(&n, len(q.blocks))
	if w.Err() != nil {
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

// Walk walks the CLTQ's line entries in FIFO order. The QueuedLines
// scratch buffer is dead state and not saved, and loading rebuilds the
// rest: the block count is the number of entries that end a block (Push
// ends every block with one, and Pop counts a block out only on one), and
// the scan hint restarts at zero, which NextUnprefetched re-derives (it
// only caches the prefetched prefix). Loading re-bases the ring at zero;
// ring capacity is a behaviour-neutral implementation detail, so any
// stored entry count within the bound is accepted.
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
		q.blockCount, q.scanHint = 0, 0
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
		if w.Loading() && en.LastOfBlock {
			q.blockCount++
		}
	}
	if w.Loading() {
		q.check(w)
	}
}

// check rejects loaded CLTQ entries Push never produces: one holding no
// instructions or more than fit in its line.
func (q *CLTQ) check(w *snap.Walker) {
	for i := 0; i < q.n && w.Err() == nil; i++ {
		if got := q.at(i).NumInsts; got < 1 || got > q.lineSize/isa.InstBytes {
			w.Failf("cltq: entry %d holds %d instructions, want 1..%d", i, got, q.lineSize/isa.InstBytes)
		}
	}
}
