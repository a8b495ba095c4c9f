// Package freelist recycles the large fixed-size tables of released engines:
// the stream predictor's entries and the caches' ways. A sweep builds one
// engine per job, and without recycling every job allocates (and the
// collector later reclaims) a few hundred kilobytes of tables whose sizes
// repeat from job to job.
//
// A table enters a list only when its owner is released, and an owner that
// is never released simply leaves its table to the collector, so the lists
// hold at most as many tables of a size as there were owners of that size
// alive at once.
package freelist

import "sync"

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
