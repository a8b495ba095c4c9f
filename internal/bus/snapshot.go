package bus

import "clgp/internal/snap"

// stateTag opens the bus arbiter section of a snapshot payload ("BUSA").
const stateTag uint32 = 0x41535542

// maxQueue bounds a decoded queue length; the real queues hold at most a few
// tens of in-flight requests, so anything past this is corruption.
const maxQueue = 1 << 20

// Walk walks the arbiter: each class's pending requests in FIFO order plus
// the grant counters and the last grant's cycle. Request tags are slot
// indices into the memory hierarchy's slot table, which the hierarchy
// preserves positionally across a snapshot, so the tags stay valid
// verbatim. Loading re-bases each queue at zero.
func (a *Arbiter) Walk(w *snap.Walker) {
	w.Tag(stateTag)
	for cls := range a.queues {
		q := &a.queues[cls]
		n := q.n
		w.Count(&n, maxQueue)
		if w.Loading() {
			q.reset()
		}
		for i := 0; i < n && w.Err() == nil; i++ {
			if w.Loading() {
				q.push(Request{From: Requester(cls)})
			}
			r := &q.buf[(q.head+i)%len(q.buf)]
			w.U64(&r.Tag)
			w.U64(&r.Enqueued)
		}
	}
	w.U64(&a.grants)
	w.U64(&a.conflicts)
	w.U64(&a.lastGrant)
}
