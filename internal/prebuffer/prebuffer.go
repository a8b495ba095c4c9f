// Package prebuffer implements the two fully-associative line buffers the
// paper compares:
//
//   - PrefetchBuffer: the classic FDP prefetch buffer. Entries are marked
//     available as soon as they are used once; on use the line is moved to
//     the I-cache (or L0) by the caller.
//   - PrestageBuffer: the paper's contribution. Each entry carries a
//     consumers counter that tracks how many CLTQ entries still reference
//     the line; the entry becomes replaceable only when the counter drops to
//     zero, and used lines are NOT transferred to the cache hierarchy.
//
// Both buffers share the timing model of a small fully-associative
// structure: a fixed access latency (1 cycle when the buffer fits the
// one-cycle capacity of the technology node, or a pipelined multi-cycle
// access for the 16-entry configuration).
package prebuffer

import (
	"fmt"

	"clgp/internal/isa"
)

// Entry is the externally visible state of one buffer entry, used by tests
// and debugging tools.
type Entry struct {
	// Line is the cache-line address held (or being fetched) by the entry.
	Line isa.Addr
	// Valid indicates the line data has arrived from the hierarchy.
	Valid bool
	// Pending indicates the entry is allocated but data has not arrived yet.
	Pending bool
	// Consumers is the consumers counter (always 0 for a PrefetchBuffer).
	Consumers int
	// Used reports whether the line was fetched at least once.
	Used bool
}

// entry is the internal representation.
type entry struct {
	line      isa.Addr
	allocated bool
	valid     bool // data arrived
	consumers int
	used      bool
	lru       uint64
	available bool // FDP: freed after first use
}

// Buffer is the common mechanics shared by both buffer flavours.
type Buffer struct {
	name    string
	entries []entry
	stamp   uint64
	latency int

	// statistics
	hits      uint64
	misses    uint64
	allocs    uint64
	evictions uint64
	usedLines uint64
}

func newBuffer(name string, entries, latency int) (*Buffer, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("prebuffer %s: entry count must be positive, got %d", name, entries)
	}
	if latency < 1 {
		latency = 1
	}
	return &Buffer{name: name, entries: make([]entry, entries), latency: latency}, nil
}

// Size returns the number of entries.
func (b *Buffer) Size() int { return len(b.entries) }

// Latency returns the access latency in cycles.
func (b *Buffer) Latency() int { return b.latency }

// Hits returns the number of successful Lookup calls.
func (b *Buffer) Hits() uint64 { return b.hits }

// Misses returns the number of failed Lookup calls.
func (b *Buffer) Misses() uint64 { return b.misses }

// Allocations returns the number of entries allocated for prefetches.
func (b *Buffer) Allocations() uint64 { return b.allocs }

// Evictions returns the number of valid lines displaced by new allocations.
func (b *Buffer) Evictions() uint64 { return b.evictions }

// UsedLines returns the number of allocated lines that were fetched at least
// once before being displaced (prefetch usefulness numerator).
func (b *Buffer) UsedLines() uint64 { return b.usedLines }

// find returns the index of the entry holding line, or -1. It is the hot
// lookup of both buffer flavours — every fetch-stage access and every
// queue-walk Request funnels through it — and a scan of the entries: the
// buffers the paper models hold 4, 8 or 16 lines (see BenchmarkBufferFind).
func (b *Buffer) find(line isa.Addr) int {
	for i := range b.entries {
		if b.entries[i].allocated && b.entries[i].line == line {
			return i
		}
	}
	return -1
}

// Contains reports whether the line is allocated (valid or pending), without
// touching LRU or statistics.
func (b *Buffer) Contains(line isa.Addr) bool { return b.find(line) >= 0 }

// ContainsValid reports whether the line is present with data available.
func (b *Buffer) ContainsValid(line isa.Addr) bool {
	i := b.find(line)
	return i >= 0 && b.entries[i].valid
}

// ContainsPending reports whether the line is allocated but still in flight.
func (b *Buffer) ContainsPending(line isa.Addr) bool {
	i := b.find(line)
	return i >= 0 && !b.entries[i].valid
}

// Entries returns a snapshot of all allocated entries.
func (b *Buffer) Entries() []Entry {
	var out []Entry
	for i := range b.entries {
		e := &b.entries[i]
		if !e.allocated {
			continue
		}
		out = append(out, Entry{
			Line:      e.line,
			Valid:     e.valid,
			Pending:   !e.valid,
			Consumers: e.consumers,
			Used:      e.used,
		})
	}
	return out
}

// Occupancy returns the number of allocated entries.
func (b *Buffer) Occupancy() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].allocated {
			n++
		}
	}
	return n
}

// Fill marks the line's data as arrived (valid). It is a no-op if the entry
// was reallocated in the meantime.
func (b *Buffer) Fill(line isa.Addr) {
	if i := b.find(line); i >= 0 {
		b.entries[i].valid = true
	}
}

// touch refreshes the LRU stamp of entry i.
func (b *Buffer) touch(i int) {
	b.stamp++
	b.entries[i].lru = b.stamp
}

// evictInto reuses entry i for a new allocation of line, counting the
// displaced line's eviction.
func (b *Buffer) evictInto(i int, line isa.Addr) {
	e := &b.entries[i]
	if e.allocated {
		if e.valid {
			b.evictions++
			if e.used {
				b.usedLines++
			}
		}
	}
	*e = entry{line: line, allocated: true}
	b.allocs++
	b.touch(i)
}

// PrefetchBuffer is the FDP-style prefetch buffer.
type PrefetchBuffer struct {
	Buffer
	// free counts the entries claimable by Allocate (unallocated or
	// available), maintained on every transition so FreeSlots — polled by the
	// engine's event-horizon check every idle cycle — is O(1) instead of a
	// scan. freeSlotsScan is the reference; tests cross-check the two.
	free int
}

// NewPrefetchBuffer creates a prefetch buffer with the given entry count and
// access latency.
func NewPrefetchBuffer(entries, latency int) (*PrefetchBuffer, error) {
	b, err := newBuffer("prefetch", entries, latency)
	if err != nil {
		return nil, err
	}
	pb := &PrefetchBuffer{Buffer: *b}
	// All entries start available.
	for i := range pb.entries {
		pb.entries[i].available = true
	}
	pb.free = len(pb.entries)
	return pb, nil
}

// Allocate reserves an entry for a prefetch of line and returns true on
// success. Only entries marked available (never used, or already consumed)
// or unallocated entries can be claimed; among candidates the LRU one is
// chosen. If the line is already present no new allocation is made and
// Allocate returns false.
func (pb *PrefetchBuffer) Allocate(line isa.Addr) bool {
	if pb.find(line) >= 0 {
		return false
	}
	if pb.free == 0 {
		return false // no claimable entry; skip the victim scan
	}
	victim := -1
	for i := range pb.entries {
		e := &pb.entries[i]
		if !e.allocated || e.available {
			if victim < 0 || e.lru < pb.entries[victim].lru {
				victim = i
			}
		}
	}
	if victim < 0 {
		return false
	}
	// The victim was claimable by definition; it leaves the free pool.
	pb.evictInto(victim, line)
	pb.entries[victim].available = false
	pb.free--
	return true
}

// Lookup performs a fetch-stage access for line. On a hit the entry is
// marked used and immediately becomes available for new prefetches (the FDP
// policy: the caller moves the line into the I-cache/L0). The return value
// reports whether valid data was found.
func (pb *PrefetchBuffer) Lookup(line isa.Addr) bool {
	i := pb.find(line)
	if i < 0 || !pb.entries[i].valid {
		pb.misses++
		return false
	}
	pb.hits++
	pb.entries[i].used = true
	if !pb.entries[i].available {
		pb.entries[i].available = true
		pb.free++
	}
	pb.touch(i)
	return true
}

// Invalidate removes the line (used when the caller moves it elsewhere).
func (pb *PrefetchBuffer) Invalidate(line isa.Addr) {
	if i := pb.find(line); i >= 0 {
		if pb.entries[i].used {
			pb.usedLines++
		}
		if !pb.entries[i].available {
			pb.free++
		}
		pb.entries[i] = entry{available: true}
	}
}

// FreeSlots returns the number of entries currently claimable by Allocate,
// from the incrementally maintained counter.
func (pb *PrefetchBuffer) FreeSlots() int { return pb.free }

// freeSlotsScan is the reference implementation of FreeSlots: an exhaustive
// scan of the entries. Tests cross-check the counter against it.
func (pb *PrefetchBuffer) freeSlotsScan() int {
	n := 0
	for i := range pb.entries {
		if !pb.entries[i].allocated || pb.entries[i].available {
			n++
		}
	}
	return n
}

// Reset clears all entries (statistics are preserved).
func (pb *PrefetchBuffer) Reset() {
	for i := range pb.entries {
		pb.entries[i] = entry{available: true}
	}
	pb.free = len(pb.entries)
}

// PrestageBuffer is the CLGP prestage buffer.
type PrestageBuffer struct {
	Buffer
	// replaceable counts the entries claimable by Request (unallocated or
	// with a zero consumers counter), maintained on every consumer-count
	// transition so ReplaceableSlots — polled by CLGP's event-horizon check
	// every idle cycle — is O(1). replaceableSlotsScan is the reference.
	replaceable int
}

// NewPrestageBuffer creates a prestage buffer with the given entry count and
// access latency.
func NewPrestageBuffer(entries, latency int) (*PrestageBuffer, error) {
	b, err := newBuffer("prestage", entries, latency)
	if err != nil {
		return nil, err
	}
	return &PrestageBuffer{Buffer: *b, replaceable: entries}, nil
}

// Request is called by CLGP when a CLTQ entry references line. If the line
// is already allocated, its consumers counter is incremented and (alreadyIn
// = true, allocated = false) is returned: no new prefetch is needed. If the
// line is absent and a replaceable entry exists (consumers == 0, LRU first),
// the entry is claimed with consumers = 1 and (false, true) is returned: the
// caller must issue the real prefetch. If no entry is replaceable, (false,
// false) is returned and the caller should retry later.
func (sb *PrestageBuffer) Request(line isa.Addr) (alreadyIn, allocated bool) {
	if i := sb.find(line); i >= 0 {
		if sb.entries[i].consumers == 0 {
			sb.replaceable--
		}
		sb.entries[i].consumers++
		sb.touch(i)
		return true, false
	}
	if sb.replaceable == 0 {
		return false, false // every entry pinned; skip the victim scan
	}
	victim := -1
	for i := range sb.entries {
		e := &sb.entries[i]
		if e.allocated && e.consumers > 0 {
			continue // still referenced by the CLTQ: not replaceable
		}
		if victim < 0 || !sb.entries[i].allocated && sb.entries[victim].allocated ||
			(sb.entries[i].allocated == sb.entries[victim].allocated && e.lru < sb.entries[victim].lru) {
			victim = i
		}
	}
	if victim < 0 {
		return false, false
	}
	// The victim was replaceable by definition; pinning it with the first
	// consumer removes it from the pool.
	sb.evictInto(victim, line)
	sb.entries[victim].consumers = 1
	sb.replaceable--
	return false, true
}

// Lookup performs a fetch-stage access for line. On a hit (valid data) the
// consumers counter is decremented — the fetch consumed one pending
// reference — and the entry stays resident (it is NOT transferred to the
// I-cache). Returns whether valid data was found.
func (sb *PrestageBuffer) Lookup(line isa.Addr) bool {
	i := sb.find(line)
	if i < 0 || !sb.entries[i].valid {
		sb.misses++
		return false
	}
	sb.hits++
	e := &sb.entries[i]
	e.used = true
	if e.consumers > 0 {
		e.consumers--
		if e.consumers == 0 {
			sb.replaceable++
		}
	}
	sb.touch(i)
	return true
}

// Invalidate removes the line's entry entirely, forgetting any pending
// consumers. Used when the line's in-flight prefetch is cancelled: keeping
// the never-to-be-filled entry around would make Request report the line as
// already staged and suppress the re-prefetch on the correct path.
func (sb *PrestageBuffer) Invalidate(line isa.Addr) {
	if i := sb.find(line); i >= 0 {
		if sb.entries[i].used {
			sb.usedLines++
		}
		if sb.entries[i].consumers > 0 {
			sb.replaceable++
		}
		sb.entries[i] = entry{}
	}
}

// Consumers returns the consumers counter of line, or -1 if absent.
func (sb *PrestageBuffer) Consumers(line isa.Addr) int {
	if i := sb.find(line); i >= 0 {
		return sb.entries[i].consumers
	}
	return -1
}

// ResetConsumers clears the consumers counters of every entry. The paper
// does this on a branch misprediction: the CLTQ is flushed, so no queued
// consumer remains, but valid lines stay usable until overwritten by
// prefetches from the correct path.
func (sb *PrestageBuffer) ResetConsumers() {
	for i := range sb.entries {
		sb.entries[i].consumers = 0
	}
	sb.replaceable = len(sb.entries)
}

// ReplaceableSlots returns the number of entries claimable by Request
// (unallocated or with a zero consumers counter), from the incrementally
// maintained counter.
func (sb *PrestageBuffer) ReplaceableSlots() int { return sb.replaceable }

// replaceableSlotsScan is the reference implementation of ReplaceableSlots:
// an exhaustive scan of the entries. Tests cross-check the counter against
// it.
func (sb *PrestageBuffer) replaceableSlotsScan() int {
	n := 0
	for i := range sb.entries {
		if !sb.entries[i].allocated || sb.entries[i].consumers == 0 {
			n++
		}
	}
	return n
}

// Reset clears all entries (statistics are preserved).
func (sb *PrestageBuffer) Reset() {
	for i := range sb.entries {
		sb.entries[i] = entry{}
	}
	sb.replaceable = len(sb.entries)
}
