package prebuffer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clgp/internal/isa"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewPrefetchBuffer(0, 1); err == nil {
		t.Errorf("zero entries should error")
	}
	if _, err := NewPrestageBuffer(-3, 1); err == nil {
		t.Errorf("negative entries should error")
	}
	pb, err := NewPrefetchBuffer(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Latency() != 1 {
		t.Errorf("latency should default to 1, got %d", pb.Latency())
	}
	if pb.Size() != 4 {
		t.Errorf("Size = %d", pb.Size())
	}
	sb, err := NewPrestageBuffer(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Latency() != 3 || sb.Size() != 16 {
		t.Errorf("prestage latency/size = %d/%d", sb.Latency(), sb.Size())
	}
}

func TestPrefetchBufferAllocateFillLookup(t *testing.T) {
	pb, _ := NewPrefetchBuffer(2, 1)
	if !pb.Allocate(0x100) {
		t.Fatalf("allocate should succeed on empty buffer")
	}
	if pb.Allocate(0x100) {
		t.Errorf("re-allocating a present line should be refused")
	}
	if !pb.Contains(0x100) || pb.ContainsValid(0x100) {
		t.Errorf("line should be pending before fill")
	}
	// Lookup before the data arrives must miss.
	if pb.Lookup(0x100) {
		t.Errorf("lookup of a pending line should miss")
	}
	pb.Fill(0x100)
	if !pb.ContainsValid(0x100) {
		t.Errorf("line should be valid after fill")
	}
	if !pb.Lookup(0x100) {
		t.Errorf("lookup after fill should hit")
	}
	if pb.Hits() != 1 || pb.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d", pb.Hits(), pb.Misses())
	}
	// FDP policy: after use the entry is available again.
	if pb.FreeSlots() != 2 {
		t.Errorf("FreeSlots = %d, want 2 (used entry becomes available)", pb.FreeSlots())
	}
}

func TestPrefetchBufferCapacityAndLRU(t *testing.T) {
	pb, _ := NewPrefetchBuffer(2, 1)
	if !pb.Allocate(0x100) || !pb.Allocate(0x200) {
		t.Fatalf("two allocations should fit")
	}
	pb.Fill(0x100)
	pb.Fill(0x200)
	// Both entries hold unused valid lines: no entry is available, so a new
	// allocation must fail (FDP frees entries only after use).
	if pb.Allocate(0x300) {
		t.Errorf("allocation should fail while all entries hold unused lines")
	}
	if pb.FreeSlots() != 0 {
		t.Errorf("FreeSlots = %d, want 0", pb.FreeSlots())
	}
	// Use one line: its entry becomes available and can be reused.
	if !pb.Lookup(0x100) {
		t.Fatalf("lookup should hit")
	}
	if !pb.Allocate(0x300) {
		t.Errorf("allocation should succeed after a line is consumed")
	}
	if pb.Contains(0x100) {
		t.Errorf("consumed line should have been replaced")
	}
	if !pb.Contains(0x200) || !pb.Contains(0x300) {
		t.Errorf("resident set wrong: %+v", pb.Entries())
	}
}

func TestPrefetchBufferInvalidateAndReset(t *testing.T) {
	pb, _ := NewPrefetchBuffer(4, 1)
	pb.Allocate(0x100)
	pb.Fill(0x100)
	pb.Lookup(0x100)
	pb.Invalidate(0x100)
	if pb.Contains(0x100) {
		t.Errorf("invalidated line still present")
	}
	pb.Allocate(0x200)
	pb.Reset()
	if pb.Occupancy() != 0 {
		t.Errorf("Reset should clear occupancy")
	}
	if pb.Allocations() == 0 {
		t.Errorf("statistics should survive Reset")
	}
	// Invalidate of an absent line is a no-op.
	pb.Invalidate(0xdead)
}

func TestPrestageBufferRequestSemantics(t *testing.T) {
	sb, _ := NewPrestageBuffer(2, 1)
	already, alloc := sb.Request(0x100)
	if already || !alloc {
		t.Fatalf("first request should allocate: already=%v alloc=%v", already, alloc)
	}
	if sb.Consumers(0x100) != 1 {
		t.Errorf("consumers = %d, want 1", sb.Consumers(0x100))
	}
	// Second request for the same line: no new prefetch, counter bumped.
	already, alloc = sb.Request(0x100)
	if !already || alloc {
		t.Errorf("repeat request should hit: already=%v alloc=%v", already, alloc)
	}
	if sb.Consumers(0x100) != 2 {
		t.Errorf("consumers = %d, want 2", sb.Consumers(0x100))
	}
	if sb.Consumers(0xdead) != -1 {
		t.Errorf("absent line consumers should be -1")
	}
}

func TestPrestageBufferReplacementGuardedByConsumers(t *testing.T) {
	sb, _ := NewPrestageBuffer(2, 1)
	sb.Request(0x100)
	sb.Request(0x200)
	// Both entries have consumers > 0: nothing is replaceable.
	if already, alloc := sb.Request(0x300); already || alloc {
		t.Errorf("request should stall when every entry has pending consumers")
	}
	if sb.ReplaceableSlots() != 0 {
		t.Errorf("ReplaceableSlots = %d, want 0", sb.ReplaceableSlots())
	}
	// Fetch 0x100 once: its only consumer is gone, entry becomes replaceable,
	// but the line itself stays resident (not transferred to the I-cache).
	sb.Fill(0x100)
	if !sb.Lookup(0x100) {
		t.Fatalf("lookup should hit after fill")
	}
	if sb.Consumers(0x100) != 0 {
		t.Errorf("consumers after fetch = %d, want 0", sb.Consumers(0x100))
	}
	if !sb.Contains(0x100) {
		t.Errorf("fetched line must remain resident (no transfer to I-cache)")
	}
	if sb.ReplaceableSlots() != 1 {
		t.Errorf("ReplaceableSlots = %d, want 1", sb.ReplaceableSlots())
	}
	// Now a third line can displace 0x100.
	if already, alloc := sb.Request(0x300); already || !alloc {
		t.Errorf("request should now allocate over the zero-consumer entry")
	}
	if sb.Contains(0x100) {
		t.Errorf("0x100 should have been displaced")
	}
	if !sb.Contains(0x200) {
		t.Errorf("0x200 (consumers>0) must never be displaced")
	}
}

func TestPrestageBufferReusedLineExtendsLifetime(t *testing.T) {
	// A line referenced twice by the CLTQ survives its first fetch.
	sb, _ := NewPrestageBuffer(1, 1)
	sb.Request(0x100)
	sb.Request(0x100)
	sb.Fill(0x100)
	if !sb.Lookup(0x100) {
		t.Fatalf("first fetch should hit")
	}
	if sb.Consumers(0x100) != 1 {
		t.Errorf("consumers = %d, want 1 after first of two fetches", sb.Consumers(0x100))
	}
	// Still not replaceable: a competing request must stall.
	if _, alloc := sb.Request(0x200); alloc {
		t.Errorf("line with pending consumers must not be replaced")
	}
	if !sb.Lookup(0x100) {
		t.Fatalf("second fetch should hit")
	}
	if sb.Consumers(0x100) != 0 {
		t.Errorf("consumers should now be 0")
	}
	if _, alloc := sb.Request(0x200); !alloc {
		t.Errorf("entry should be replaceable after its last consumer")
	}
}

func TestPrestageBufferMispredictionRecovery(t *testing.T) {
	sb, _ := NewPrestageBuffer(4, 1)
	sb.Request(0x100)
	sb.Request(0x200)
	sb.Fill(0x100)
	// Misprediction: CLTQ flushed, consumers reset, but valid lines remain
	// usable until overwritten.
	sb.ResetConsumers()
	if sb.Consumers(0x100) != 0 || sb.Consumers(0x200) != 0 {
		t.Errorf("consumers should be reset")
	}
	if !sb.ContainsValid(0x100) {
		t.Errorf("valid wrong-path line should remain usable")
	}
	if sb.ReplaceableSlots() != 4 {
		t.Errorf("all entries should be replaceable after reset, got %d", sb.ReplaceableSlots())
	}
	// The stale valid line still hits if the new path happens to need it.
	if !sb.Lookup(0x100) {
		t.Errorf("stale valid line should still hit")
	}
	sb.Reset()
	if sb.Occupancy() != 0 {
		t.Errorf("Reset should clear the buffer")
	}
}

func TestPrestageBufferLookupMissesAndStats(t *testing.T) {
	sb, _ := NewPrestageBuffer(2, 2)
	if sb.Lookup(0x500) {
		t.Errorf("lookup on empty buffer should miss")
	}
	sb.Request(0x500)
	if sb.Lookup(0x500) {
		t.Errorf("lookup of in-flight line should miss")
	}
	sb.Fill(0x500)
	if !sb.Lookup(0x500) {
		t.Errorf("lookup after fill should hit")
	}
	if sb.Hits() != 1 || sb.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d", sb.Hits(), sb.Misses())
	}
	if sb.Allocations() != 1 {
		t.Errorf("Allocations = %d", sb.Allocations())
	}
	// Fill of a line that is no longer allocated is a no-op.
	sb.Fill(0xbeef)
	if sb.Contains(0xbeef) {
		t.Errorf("fill must not allocate")
	}
	// Entries snapshot.
	entries := sb.Entries()
	if len(entries) != 1 || entries[0].Line != 0x500 || !entries[0].Valid || !entries[0].Used {
		t.Errorf("Entries = %+v", entries)
	}
}

// TestPrestageConsumersNeverNegativeProperty drives a random sequence of
// Request/Fill/Lookup/ResetConsumers operations and checks the paper's
// invariants: consumers counters never go negative, occupancy never exceeds
// capacity, and entries with consumers > 0 are never displaced.
func TestPrestageConsumersNeverNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const entries = 4
		sb, err := NewPrestageBuffer(entries, 1)
		if err != nil {
			return false
		}
		lines := []isa.Addr{0x000, 0x040, 0x080, 0x0c0, 0x100, 0x140}
		protected := make(map[isa.Addr]int) // expected consumers
		for op := 0; op < 300; op++ {
			line := lines[rng.Intn(len(lines))]
			switch rng.Intn(5) {
			case 0, 1:
				already, alloc := sb.Request(line)
				if already {
					protected[line]++
				} else if alloc {
					// A displaced victim must have had zero expected consumers.
					for l, c := range protected {
						if c > 0 && !sb.Contains(l) && l != line {
							return false
						}
					}
					protected[line] = 1
				}
			case 2:
				sb.Fill(line)
			case 3:
				if sb.Lookup(line) {
					if protected[line] > 0 {
						protected[line]--
					}
				}
			case 4:
				if rng.Intn(10) == 0 {
					sb.ResetConsumers()
					for l := range protected {
						protected[l] = 0
					}
				}
			}
			// Invariants.
			if sb.Occupancy() > entries {
				return false
			}
			for _, l := range lines {
				if c := sb.Consumers(l); c < -1 {
					return false
				}
			}
			for _, e := range sb.Entries() {
				if e.Consumers < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPrefetchBufferOccupancyProperty: occupancy never exceeds capacity and
// a line is never duplicated.
func TestPrefetchBufferOccupancyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pb, err := NewPrefetchBuffer(4, 1)
		if err != nil {
			return false
		}
		lines := []isa.Addr{0x000, 0x040, 0x080, 0x0c0, 0x100, 0x140, 0x180}
		for op := 0; op < 300; op++ {
			line := lines[rng.Intn(len(lines))]
			switch rng.Intn(4) {
			case 0, 1:
				pb.Allocate(line)
			case 2:
				pb.Fill(line)
			case 3:
				pb.Lookup(line)
			}
			if pb.Occupancy() > pb.Size() {
				return false
			}
			seen := make(map[isa.Addr]int)
			for _, e := range pb.Entries() {
				seen[e.Line]++
				if seen[e.Line] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEvictionAndUsefulnessCounters(t *testing.T) {
	pb, _ := NewPrefetchBuffer(1, 1)
	pb.Allocate(0x100)
	pb.Fill(0x100)
	pb.Lookup(0x100) // used, becomes available
	pb.Allocate(0x200)
	if pb.evictions != 1 {
		t.Errorf("evictions = %d, want 1", pb.evictions)
	}
	if pb.UsedLines() != 1 {
		t.Errorf("UsedLines = %d, want 1", pb.UsedLines())
	}
}

// TestFreeSlotsCounterMatchesScan drives a PrefetchBuffer through a random
// operation mix and checks, after every operation, that the O(1) FreeSlots
// counter agrees with the exhaustive reference scan.
func TestFreeSlotsCounterMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pb, err := NewPrefetchBuffer(1+rng.Intn(8), 1)
		if err != nil {
			return false
		}
		lines := []isa.Addr{0x000, 0x040, 0x080, 0x0c0, 0x100, 0x140, 0x180}
		for op := 0; op < 400; op++ {
			line := lines[rng.Intn(len(lines))]
			switch rng.Intn(6) {
			case 0, 1:
				pb.Allocate(line)
			case 2:
				pb.Fill(line)
			case 3:
				pb.Lookup(line)
			case 4:
				pb.Invalidate(line)
			case 5:
				if rng.Intn(20) == 0 {
					pb.Reset()
				}
			}
			if pb.FreeSlots() != pb.freeSlotsScan() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReplaceableSlotsCounterMatchesScan is the PrestageBuffer counterpart:
// the O(1) ReplaceableSlots counter must agree with the reference scan after
// every operation, including the consumer-count transitions Request/Lookup
// drive and the bulk ResetConsumers a misprediction flush performs.
func TestReplaceableSlotsCounterMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sb, err := NewPrestageBuffer(1+rng.Intn(8), 1)
		if err != nil {
			return false
		}
		lines := []isa.Addr{0x000, 0x040, 0x080, 0x0c0, 0x100, 0x140, 0x180}
		for op := 0; op < 400; op++ {
			line := lines[rng.Intn(len(lines))]
			switch rng.Intn(7) {
			case 0, 1:
				sb.Request(line)
			case 2:
				sb.Fill(line)
			case 3:
				sb.Lookup(line)
			case 4:
				sb.Invalidate(line)
			case 5:
				if rng.Intn(10) == 0 {
					sb.ResetConsumers()
				}
			case 6:
				if rng.Intn(20) == 0 {
					sb.Reset()
				}
			}
			if sb.ReplaceableSlots() != sb.replaceableSlotsScan() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
