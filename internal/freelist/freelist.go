// Package freelist recycles the large allocations a sweep would otherwise
// make afresh for every job: the fixed-size tables of released engines (the
// stream predictor's entries, the caches' ways and the slabs of in-flight
// instructions) and the byte buffers that warm-state snapshots are sealed
// into and read back from. A sweep builds one engine per job, and without
// recycling every job allocates (and the collector later reclaims) a few
// hundred kilobytes of tables and snapshot bytes whose sizes repeat from job
// to job.
//
// A table enters a list only when its owner is released, and an owner that
// is never released simply leaves its table to the collector, so the lists
// hold at most as many tables of a size as there were owners of that size
// alive at once. The byte-buffer list is bounded outright (see Bytes).
package freelist

import (
	"runtime"
	"sync"
)

// Tables is a size-keyed free list of []T tables. The zero value is ready to
// use, and it is safe for concurrent use by sweep workers.
type Tables[T any] struct {
	mu   sync.Mutex
	free map[int][][]T
}

// Get returns a zeroed table of n elements: a released one when the list
// holds one of that length, a new one otherwise.
func (t *Tables[T]) Get(n int) []T {
	t.mu.Lock()
	list := t.free[n]
	if len(list) == 0 {
		t.mu.Unlock()
		return make([]T, n)
	}
	tab := list[len(list)-1]
	list[len(list)-1] = nil
	t.free[n] = list[:len(list)-1]
	t.mu.Unlock()
	clear(tab)
	return tab
}

// Put hands tab back for a later Get of its length. The caller must drop
// every reference to tab. A nil table is ignored, so an owner that nils its
// field on release can be released twice.
func (t *Tables[T]) Put(tab []T) {
	if tab == nil {
		return
	}
	t.mu.Lock()
	if t.free == nil {
		t.free = make(map[int][][]T)
	}
	t.free[len(tab)] = append(t.free[len(tab)], tab)
	t.mu.Unlock()
}

// Artifacts is the byte-buffer list of the warm-state snapshot path:
// snap.Seal encodes containers into its buffers, blob.Dir.Get reads objects
// into them, and sim hands a snapshot's buffer back once the snapshot has
// been published or restored.
var Artifacts Bytes

// Bytes is a bounded free list of byte buffers whose sizes repeat roughly
// but not exactly, such as the snapshots of one sweep's grid points. It
// retains at most GOMAXPROCS buffers, one per goroutine that can run at
// once; a buffer handed back to a full list displaces the longest-retained
// one. The zero value is ready to use, and it is safe for concurrent use.
type Bytes struct {
	mu   sync.Mutex
	free [][]byte // oldest first
}

// Get returns an empty buffer that holds n bytes: the most recently handed
// back buffer whose capacity is at least n and at most 2n, or else a new
// one of capacity n. So a small object never takes a snapshot-sized buffer,
// and a caller that reads n bytes never has to grow the buffer it got
// (which would drop the smaller one from circulation); one that appends
// past n grows it as append does.
func (b *Bytes) Get(n int) []byte {
	b.mu.Lock()
	for i := len(b.free) - 1; i >= 0; i-- {
		if c := cap(b.free[i]); c >= n && c <= 2*n {
			buf := b.free[i]
			end := i + copy(b.free[i:], b.free[i+1:])
			b.free[end] = nil
			b.free = b.free[:end]
			b.mu.Unlock()
			return buf
		}
	}
	b.mu.Unlock()
	return make([]byte, 0, n)
}

// Put hands buf back for a later Get. The caller must drop every reference
// to buf, and so must anything it lent buf to. A buffer without capacity is
// ignored.
func (b *Bytes) Put(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	limit := runtime.GOMAXPROCS(0)
	b.mu.Lock()
	if len(b.free) >= limit {
		n := copy(b.free, b.free[len(b.free)-limit+1:])
		clear(b.free[n:])
		b.free = b.free[:n]
	}
	b.free = append(b.free, buf[:0])
	b.mu.Unlock()
}
