package prefetch

import (
	"fmt"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/ftq"
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/stats"
)

func newHierarchy(t *testing.T, l0 bool) *memory.Hierarchy {
	t.Helper()
	cfg := memory.DefaultConfig(cacti.Tech45, 4<<10)
	if l0 {
		cfg.L0Size = 256
	}
	return memory.MustNew(cfg)
}

func baseConfig(hasL0 bool) Config {
	return Config{LineBytes: 64, QueueBlocks: 8, BufferEntries: 4, BufferLatency: 1, HasL0: hasL0}
}

func block(start isa.Addr, n int, next isa.Addr, id uint64) ftq.FetchBlock {
	return ftq.FetchBlock{Start: start, NumInsts: n, Next: next, EndsInBranch: true, SeqID: id}
}

// drainBus ticks the hierarchy and engine until outstanding prefetches fill.
func drainBus(h *memory.Hierarchy, e Engine, from, cycles uint64) uint64 {
	now := from
	for i := uint64(0); i < cycles; i++ {
		h.Tick(now)
		e.Tick(now)
		now++
	}
	return now
}

func TestConfigNormalisation(t *testing.T) {
	if _, err := NewNone(Config{LineBytes: 48, QueueBlocks: 8}, nil); err == nil {
		t.Errorf("bad line size should error")
	}
	if _, err := NewNone(Config{LineBytes: 64, QueueBlocks: 0}, nil); err == nil {
		t.Errorf("zero queue should error")
	}
	if _, err := NewFDP(Config{LineBytes: 64, QueueBlocks: 8, BufferEntries: -1}, newHierarchy(t, false)); err == nil {
		t.Errorf("negative buffer should error")
	}
	e, err := NewNone(Config{LineBytes: 64, QueueBlocks: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "none" || e.BufferLatency() != 0 {
		t.Errorf("none engine basics wrong")
	}
}

func TestNoneEngineFetchSequence(t *testing.T) {
	e, err := NewNone(baseConfig(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !e.QueueEmpty() || e.QueueFull() {
		t.Errorf("fresh queue state wrong")
	}
	if _, ok := e.NextFetch(); ok {
		t.Errorf("NextFetch on empty queue should fail")
	}
	// 20-instruction block starting mid-line: 0x1030..0x107f -> 2 lines.
	if !e.EnqueueBlock(block(0x1030, 20, 0x9000, 1)) {
		t.Fatalf("enqueue failed")
	}
	if e.BlocksQueued() != 1 {
		t.Errorf("BlocksQueued = %d", e.BlocksQueued())
	}
	r1, ok := e.NextFetch()
	if !ok || r1.Line != 0x1000 || r1.Start != 0x1030 || r1.NumInsts != 4 || r1.LastOfBlock {
		t.Fatalf("first fetch request = %+v", r1)
	}
	e.PopFetch()
	r2, ok := e.NextFetch()
	if !ok || r2.Line != 0x1040 || r2.NumInsts != 16 || !r2.LastOfBlock || !r2.EndsInBranch || r2.Next != 0x9000 {
		t.Fatalf("second fetch request = %+v", r2)
	}
	e.PopFetch()
	if !e.QueueEmpty() {
		t.Errorf("queue should be empty after consuming the block")
	}
	// Baseline has no buffer.
	if hit, lat := e.LookupBuffer(0x1000, 0); hit || lat != 0 {
		t.Errorf("baseline buffer lookup should miss")
	}
	e.Tick(0)
	e.Flush()
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 0 {
		t.Errorf("baseline must not prefetch")
	}
}

func TestFDPPrefetchesAndTransfersOnUse(t *testing.T) {
	h := newHierarchy(t, false)
	e, err := NewFDP(baseConfig(false), h)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "fdp" {
		t.Errorf("name = %q", e.Name())
	}
	line := isa.Addr(0x40_0000)
	if !e.EnqueueBlock(block(line, 16, 0x9000, 1)) {
		t.Fatalf("enqueue failed")
	}
	// Let the prefetch go to memory and fill.
	now := drainBus(h, e, 0, 300)
	if !e.Buffer().ContainsValid(line) {
		t.Fatalf("prefetch did not fill the buffer: %+v", e.Buffer().Entries())
	}
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 1 {
		t.Errorf("PrefetchesIssued = %d", r.PrefetchesIssued)
	}
	if r.PrefetchSources[stats.SrcMem] != 1 {
		t.Errorf("cold prefetch should come from memory: %+v", r.PrefetchSources)
	}
	// Fetch-stage hit: line moves into the L1 (no L0 here) and the buffer
	// entry is freed.
	hit, lat := e.LookupBuffer(line, now)
	if !hit || lat != 1 {
		t.Fatalf("buffer lookup = %v, %d", hit, lat)
	}
	if !h.L1I().Probe(line) {
		t.Errorf("FDP must transfer the used line into the L1")
	}
	if e.Buffer().Contains(line) {
		t.Errorf("used line should leave the prefetch buffer")
	}
}

func TestFDPTransfersToL0WhenPresent(t *testing.T) {
	h := newHierarchy(t, true)
	e, err := NewFDP(baseConfig(true), h)
	if err != nil {
		t.Fatal(err)
	}
	line := isa.Addr(0x40_0000)
	e.EnqueueBlock(block(line, 4, 0x9000, 1))
	now := drainBus(h, e, 0, 300)
	hit, _ := e.LookupBuffer(line, now)
	if !hit {
		t.Fatalf("expected buffer hit")
	}
	if !h.L0().Probe(line) {
		t.Errorf("with an L0, the used line must move into the L0")
	}
	if h.L1I().Probe(line) {
		t.Errorf("the used line must not also be copied into the L1")
	}
}

func TestFDPEnqueueCacheProbeFiltering(t *testing.T) {
	h := newHierarchy(t, false)
	e, _ := NewFDP(baseConfig(false), h)
	line := isa.Addr(0x40_0000)
	// Pre-install the line in the L1: the prefetch must be filtered out.
	h.InsertL1I(line)
	e.EnqueueBlock(block(line, 8, 0x9000, 1))
	drainBus(h, e, 0, 50)
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 0 {
		t.Errorf("filtered line should not be prefetched (issued %d)", r.PrefetchesIssued)
	}
	if r.PrefetchSources[stats.SrcL1] != 1 {
		t.Errorf("filtered prefetch should be counted as an L1 source: %+v", r.PrefetchSources)
	}
	if e.Buffer().Occupancy() != 0 {
		t.Errorf("no buffer entry should be allocated for a filtered line")
	}
}

func TestFDPDoesNotDuplicatePendingLines(t *testing.T) {
	h := newHierarchy(t, false)
	e, _ := NewFDP(baseConfig(false), h)
	line := isa.Addr(0x40_0000)
	e.EnqueueBlock(block(line, 4, 0x9000, 1))
	e.Tick(0) // issues the prefetch (still in flight)
	e.EnqueueBlock(block(line, 4, 0x9000, 2))
	e.Tick(1)
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 1 {
		t.Errorf("the same line must not be prefetched twice (issued %d)", r.PrefetchesIssued)
	}
	if r.PrefetchSources[stats.SrcPreBuffer] != 1 {
		t.Errorf("the duplicate should count as a pre-buffer source: %+v", r.PrefetchSources)
	}
}

func TestFDPBufferCapacityStallsCandidates(t *testing.T) {
	h := newHierarchy(t, false)
	cfg := baseConfig(false)
	cfg.BufferEntries = 2
	e, _ := NewFDP(cfg, h)
	// Three distinct lines but only two buffer entries; none is consumed, so
	// only two prefetches can be issued.
	e.EnqueueBlock(block(0x40_0000, 16, 0, 1))
	e.EnqueueBlock(block(0x40_1000, 16, 0, 2))
	e.EnqueueBlock(block(0x40_2000, 16, 0, 3))
	drainBus(h, e, 0, 300)
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 2 {
		t.Errorf("issued %d prefetches with a 2-entry buffer, want 2", r.PrefetchesIssued)
	}
}

func TestFDPFlushClearsQueues(t *testing.T) {
	h := newHierarchy(t, false)
	e, _ := NewFDP(baseConfig(false), h)
	e.EnqueueBlock(block(0x40_0000, 64, 0, 1))
	e.EnqueueBlock(block(0x40_4000, 64, 0, 2))
	e.Flush()
	if !e.QueueEmpty() || e.BlocksQueued() != 0 {
		t.Errorf("flush did not clear the FTQ")
	}
	e.Tick(0)
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 0 {
		t.Errorf("flushed candidates should not be prefetched")
	}
}

func TestCLGPNoFilteringAndNoTransfer(t *testing.T) {
	h := newHierarchy(t, false)
	e, err := NewCLGP(baseConfig(false), h)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "clgp" {
		t.Errorf("name = %q", e.Name())
	}
	line := isa.Addr(0x40_0000)
	// Even a line already resident in the L1 is staged (no filtering): the
	// point is to avoid the multi-cycle L1 hit.
	h.InsertL1I(line)
	e.EnqueueBlock(block(line, 8, 0x9000, 1))
	now := drainBus(h, e, 0, 300)
	if !e.Buffer().ContainsValid(line) {
		t.Fatalf("CLGP should stage the line even though it is in the L1")
	}
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 1 {
		t.Errorf("PrefetchesIssued = %d", r.PrefetchesIssued)
	}
	// Fetch hit: line stays in the prestage buffer and is NOT moved to L0.
	hit, _ := e.LookupBuffer(line, now)
	if !hit {
		t.Fatalf("prestage lookup should hit")
	}
	if !e.Buffer().Contains(line) {
		t.Errorf("CLGP must keep the line in the prestage buffer after use")
	}
}

func TestCLGPConsumersTrackCLTQReferences(t *testing.T) {
	h := newHierarchy(t, false)
	cfg := baseConfig(false)
	e, _ := NewCLGP(cfg, h)
	line := isa.Addr(0x40_0000)
	// Two blocks referencing the same line: one prefetch, consumers = 2.
	e.EnqueueBlock(block(line, 8, 0x9000, 1))
	e.EnqueueBlock(block(line, 8, 0x9000, 2))
	e.Tick(0)
	if got := e.Buffer().Consumers(line); got != 2 {
		t.Errorf("consumers = %d, want 2", got)
	}
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 1 {
		t.Errorf("issued %d prefetches, want 1", r.PrefetchesIssued)
	}
	if r.PrefetchSources[stats.SrcPreBuffer] != 1 {
		t.Errorf("second reference should count as a pre-buffer prefetch source")
	}
	// After the two fetches the entry becomes replaceable.
	drainBus(h, e, 1, 300)
	e.LookupBuffer(line, 300)
	e.LookupBuffer(line, 301)
	if e.Buffer().Consumers(line) != 0 {
		t.Errorf("consumers should be 0 after both fetches")
	}
}

func TestCLGPStallsWhenAllEntriesHaveConsumers(t *testing.T) {
	h := newHierarchy(t, false)
	cfg := baseConfig(false)
	cfg.BufferEntries = 2
	e, _ := NewCLGP(cfg, h)
	e.EnqueueBlock(block(0x40_0000, 4, 0, 1))
	e.EnqueueBlock(block(0x40_1000, 4, 0, 2))
	e.EnqueueBlock(block(0x40_2000, 4, 0, 3))
	e.Tick(0)
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 2 {
		t.Errorf("issued %d, want 2 (third line must wait for a free entry)", r.PrefetchesIssued)
	}
	// The third CLTQ entry must still be unprefetched.
	if idx := e.Queue().NextUnprefetched(); idx < 0 {
		t.Errorf("third entry should remain unprefetched while the buffer is pinned")
	}
	// Consuming the first line frees its entry; the stalled prefetch then
	// proceeds.
	drainBus(h, e, 1, 300)
	e.LookupBuffer(0x40_0000, 300)
	e.Tick(301)
	var r2 stats.Results
	e.CollectStats(&r2)
	if r2.PrefetchesIssued != 3 {
		t.Errorf("after freeing an entry, issued = %d, want 3", r2.PrefetchesIssued)
	}
}

func TestCLGPFlushResetsConsumersButKeepsLines(t *testing.T) {
	h := newHierarchy(t, false)
	e, _ := NewCLGP(baseConfig(false), h)
	line := isa.Addr(0x40_0000)
	e.EnqueueBlock(block(line, 8, 0x9000, 1))
	drainBus(h, e, 0, 300)
	if !e.Buffer().ContainsValid(line) {
		t.Fatalf("line should be staged")
	}
	e.Flush()
	if !e.QueueEmpty() {
		t.Errorf("CLTQ should be empty after a flush")
	}
	if e.Buffer().Consumers(line) != 0 {
		t.Errorf("consumers should be reset on a flush")
	}
	// The stale valid line still serves a fetch on the new path.
	if hit, _ := e.LookupBuffer(line, 400); !hit {
		t.Errorf("valid wrong-path line should remain usable after a flush")
	}
}

func TestCLGPFetchRequestsMatchCLTQ(t *testing.T) {
	h := newHierarchy(t, false)
	e, _ := NewCLGP(baseConfig(false), h)
	e.EnqueueBlock(block(0x1030, 20, 0x9000, 7))
	r1, ok := e.NextFetch()
	if !ok || r1.Line != 0x1000 || r1.NumInsts != 4 || r1.LastOfBlock {
		t.Fatalf("first CLGP fetch request = %+v", r1)
	}
	e.PopFetch()
	r2, ok := e.NextFetch()
	if !ok || r2.Line != 0x1040 || r2.NumInsts != 16 || !r2.LastOfBlock || r2.Next != 0x9000 {
		t.Fatalf("second CLGP fetch request = %+v", r2)
	}
	e.PopFetch()
	if _, ok := e.NextFetch(); ok {
		t.Errorf("queue should be exhausted")
	}
}

func TestNextNEnginePrefetchesSequentialLines(t *testing.T) {
	h := newHierarchy(t, false)
	cfg := baseConfig(false)
	e, err := NewNextN(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "nextn" {
		t.Errorf("name = %q", e.Name())
	}
	line := isa.Addr(0x40_0000)
	e.EnqueueBlock(block(line, 16, 0x9000, 1))
	// Consume the single line of the block: the next 2 lines become
	// prefetch candidates.
	e.PopFetch()
	drainBus(h, e, 0, 300)
	if !e.Buffer().ContainsValid(line+64) || !e.Buffer().ContainsValid(line+128) {
		t.Errorf("next-2-line prefetching should stage lines +64 and +128: %+v", e.Buffer().Entries())
	}
	var r stats.Results
	e.CollectStats(&r)
	if r.PrefetchesIssued != 2 {
		t.Errorf("issued %d, want 2", r.PrefetchesIssued)
	}
	// Transfer-on-use semantics.
	hit, _ := e.LookupBuffer(line+64, 400)
	if !hit || !h.L1I().Probe(line+64) {
		t.Errorf("used line should move into the L1")
	}
	e.Flush()
	if !e.QueueEmpty() {
		t.Errorf("flush should clear the queue")
	}
}

// TestEnginesShareQueueOpportunities: FDP and CLGP accept exactly the same
// block stream (same block capacity), per the paper's fairness argument.
func TestEnginesShareQueueOpportunities(t *testing.T) {
	h1 := newHierarchy(t, false)
	h2 := newHierarchy(t, false)
	fdp, _ := NewFDP(baseConfig(false), h1)
	clgp, _ := NewCLGP(baseConfig(false), h2)
	for i := 0; i < 20; i++ {
		fb := block(isa.Addr(0x40_0000+i*0x200), 32, 0, uint64(i))
		a := fdp.EnqueueBlock(fb)
		b := clgp.EnqueueBlock(fb)
		if a != b {
			t.Fatalf("block %d accepted differently: fdp=%v clgp=%v", i, a, b)
		}
		if fdp.BlocksQueued() != clgp.BlocksQueued() {
			t.Fatalf("block occupancy diverged: %d vs %d", fdp.BlocksQueued(), clgp.BlocksQueued())
		}
	}
}

func TestFDPCancelledPrefetchesFreeBufferEntries(t *testing.T) {
	h := newHierarchy(t, false)
	e, err := NewFDP(baseConfig(false), h)
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue a block spanning 4 lines and let the engine allocate all 4
	// buffer entries and enqueue the prefetches on the bus (no bus ticks, so
	// none are granted yet).
	if !e.EnqueueBlock(block(0x40_0000, 64, 0x50_0000, 1)) {
		t.Fatal("enqueue failed")
	}
	e.Tick(0)
	e.Tick(1)
	if free := e.Buffer().FreeSlots(); free != 0 {
		t.Fatalf("expected all 4 entries pending, %d free", free)
	}
	// Misprediction: queued bus prefetches are cancelled and the engine is
	// flushed. The pending buffer entries must become claimable again.
	if n := h.CancelPrefetches(); n != 4 {
		t.Fatalf("cancelled %d prefetches, want 4", n)
	}
	e.Flush()
	e.Tick(2) // completeFills observes the cancellations
	if free := e.Buffer().FreeSlots(); free != 4 {
		t.Errorf("cancelled prefetches leaked buffer entries: %d free, want 4", free)
	}
	// The engine must be able to prefetch again afterwards.
	if !e.EnqueueBlock(block(0x60_0000, 32, 0x70_0000, 2)) {
		t.Fatal("enqueue after flush failed")
	}
	e.Tick(3)
	if got := e.Buffer().Allocations(); got < 5 {
		t.Errorf("no new allocations after cancellation recovery (total %d)", got)
	}
}

func TestCLGPCancelledPrefetchesReplaceableAfterFlush(t *testing.T) {
	h := newHierarchy(t, false)
	e, err := NewCLGP(baseConfig(false), h)
	if err != nil {
		t.Fatal(err)
	}
	if !e.EnqueueBlock(block(0x40_0000, 64, 0x50_0000, 1)) {
		t.Fatal("enqueue failed")
	}
	e.Tick(0)
	e.Tick(1)
	if free := e.Buffer().ReplaceableSlots(); free != 0 {
		t.Fatalf("expected all entries referenced, %d replaceable", free)
	}
	h.CancelPrefetches()
	e.Flush() // resets consumers counters
	e.Tick(2) // completeFills drops the cancelled fills and their entries
	if free := e.Buffer().ReplaceableSlots(); free != 4 {
		t.Errorf("prestage entries not replaceable after flush: %d, want 4", free)
	}
	// The cancelled entries must be gone entirely: a stale pending entry
	// would make the correct path's re-reference report "already staged"
	// and never re-issue the prefetch.
	if e.Buffer().Contains(0x40_0000) {
		t.Errorf("cancelled prestage entry still resident")
	}
	issuedBefore := e.issued
	if !e.EnqueueBlock(block(0x40_0000, 16, 0x50_0000, 2)) {
		t.Fatal("enqueue after flush failed")
	}
	e.Tick(3)
	if e.issued == issuedBefore {
		t.Errorf("re-reference of cancelled line did not re-issue a prefetch")
	}
}

// filterKinds lists the engines built on filterEngine, each with the prefetch
// source it counts an L0-filtered candidate as and a way to queue the two
// candidate lines base and base+64: FDP takes them from an enqueued two-line
// block, NextN from consuming the line before base.
var filterKinds = []struct {
	name     string
	build    func(Config, *memory.Hierarchy) (Engine, *filterEngine)
	l0Source stats.Source
	queueTwo func(e Engine, base isa.Addr, id uint64) bool
}{
	{
		name: "fdp",
		build: func(cfg Config, h *memory.Hierarchy) (Engine, *filterEngine) {
			e, err := NewFDP(cfg, h)
			if err != nil {
				panic(err)
			}
			return e, &e.filterEngine
		},
		l0Source: stats.SrcL0,
		queueTwo: func(e Engine, base isa.Addr, id uint64) bool {
			return e.EnqueueBlock(block(base, 32, 0, id))
		},
	},
	{
		name: "nextn",
		build: func(cfg Config, h *memory.Hierarchy) (Engine, *filterEngine) {
			e, err := NewNextN(cfg, h)
			if err != nil {
				panic(err)
			}
			return e, &e.filterEngine
		},
		l0Source: stats.SrcL1,
		queueTwo: func(e Engine, base isa.Addr, id uint64) bool {
			if !e.EnqueueBlock(block(base-64, 16, 0, id)) {
				return false
			}
			e.PopFetch()
			return true
		},
	},
}

// TestFilterEnginesBufferCapacityStalls: with every prefetch buffer entry
// allocated and none consumed, the candidate queue stalls; a fetch-stage hit
// frees an entry and the stalled head then issues.
func TestFilterEnginesBufferCapacityStalls(t *testing.T) {
	for _, k := range filterKinds {
		t.Run(k.name, func(t *testing.T) {
			h := newHierarchy(t, false)
			cfg := baseConfig(false)
			cfg.BufferEntries = 2
			e, f := k.build(cfg, h)
			k.queueTwo(e, 0x40_0000, 1)
			k.queueTwo(e, 0x40_1000, 2)
			now := drainBus(h, e, 0, 300)
			var r stats.Results
			e.CollectStats(&r)
			if r.PrefetchesIssued != 2 || f.candidates.n != 2 {
				t.Fatalf("issued %d with %d candidates left, want 2 and 2", r.PrefetchesIssued, f.candidates.n)
			}
			if e.NextEvent(now) == now {
				t.Errorf("a head blocked on a full buffer reported same-cycle work")
			}
			if hit, _ := e.LookupBuffer(0x40_0000, now); !hit {
				t.Fatalf("expected a buffer hit")
			}
			if e.NextEvent(now) != now {
				t.Errorf("a freed entry did not make the stalled head same-cycle work")
			}
			e.Tick(now)
			var r2 stats.Results
			e.CollectStats(&r2)
			if r2.PrefetchesIssued != 3 {
				t.Errorf("after freeing an entry, issued = %d, want 3", r2.PrefetchesIssued)
			}
		})
	}
}

// TestFilterEnginesFlushClearsQueues: a flush drops the FTQ and every queued
// candidate, so nothing is prefetched afterwards.
func TestFilterEnginesFlushClearsQueues(t *testing.T) {
	for _, k := range filterKinds {
		t.Run(k.name, func(t *testing.T) {
			h := newHierarchy(t, false)
			e, f := k.build(baseConfig(false), h)
			k.queueTwo(e, 0x40_0000, 1)
			k.queueTwo(e, 0x40_4000, 2)
			e.Flush()
			if !e.QueueEmpty() || e.BlocksQueued() != 0 || f.candidates.n != 0 {
				t.Errorf("flush left %d blocks and %d candidates", e.BlocksQueued(), f.candidates.n)
			}
			e.Tick(0)
			var r stats.Results
			e.CollectStats(&r)
			if r.PrefetchesIssued != 0 {
				t.Errorf("flushed candidates should not be prefetched")
			}
		})
	}
}

// TestFilterEnginesTransferOnUse: a fetch-stage hit moves the line into the
// L0 when there is one and into the L1 otherwise, frees the buffer entry and
// counts the prefetch as useful.
func TestFilterEnginesTransferOnUse(t *testing.T) {
	for _, k := range filterKinds {
		for _, hasL0 := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/l0=%v", k.name, hasL0), func(t *testing.T) {
				h := newHierarchy(t, hasL0)
				e, f := k.build(baseConfig(hasL0), h)
				line := isa.Addr(0x40_0000)
				k.queueTwo(e, line, 1)
				now := drainBus(h, e, 0, 300)
				if !f.buf.ContainsValid(line) || !f.buf.ContainsValid(line+64) {
					t.Fatalf("prefetches did not fill the buffer: %+v", f.buf.Entries())
				}
				free := f.buf.FreeSlots()
				hit, lat := e.LookupBuffer(line, now)
				if !hit || lat != 1 {
					t.Fatalf("buffer lookup = %v, %d", hit, lat)
				}
				inL0 := hasL0 && h.L0().Probe(line)
				if inL0 != hasL0 || h.L1I().Probe(line) == hasL0 {
					t.Errorf("used line in L0 %v, in L1 %v; want it in the L0 exactly when one exists",
						inL0, h.L1I().Probe(line))
				}
				if f.buf.Contains(line) || f.buf.FreeSlots() != free+1 {
					t.Errorf("used line should leave the buffer and free its entry")
				}
				var r stats.Results
				e.CollectStats(&r)
				if r.PrefetchesIssued != 2 || r.PrefetchesUseful != 1 {
					t.Errorf("issued %d, useful %d; want 2, 1", r.PrefetchesIssued, r.PrefetchesUseful)
				}
			})
		}
	}
}

// TestFilterEnginesCancelledPrefetchFreesSlot: prefetches cancelled on the
// bus by a misprediction free their pending buffer entries, and the engine
// prefetches again afterwards.
func TestFilterEnginesCancelledPrefetchFreesSlot(t *testing.T) {
	for _, k := range filterKinds {
		t.Run(k.name, func(t *testing.T) {
			h := newHierarchy(t, false)
			e, f := k.build(baseConfig(false), h)
			k.queueTwo(e, 0x40_0000, 1)
			k.queueTwo(e, 0x40_1000, 2)
			e.Tick(0)
			e.Tick(1)
			if free := f.buf.FreeSlots(); free != 0 {
				t.Fatalf("expected all 4 entries pending, %d free", free)
			}
			if n := h.CancelPrefetches(); n != 4 {
				t.Fatalf("cancelled %d prefetches, want 4", n)
			}
			e.Flush()
			e.Tick(2)
			if free := f.buf.FreeSlots(); free != 4 {
				t.Errorf("cancelled prefetches leaked buffer entries: %d free, want 4", free)
			}
			k.queueTwo(e, 0x60_0000, 3)
			e.Tick(3)
			if got := f.buf.Allocations(); got != 6 {
				t.Errorf("%d allocations after cancellation recovery, want 6", got)
			}
		})
	}
}

// TestFilterEnginesL0FilterSource pins the prefetch source each engine
// charges a candidate the L0 probe filters out to: FDP counts it as an L0
// source, NextN as an L1 source.
func TestFilterEnginesL0FilterSource(t *testing.T) {
	for _, k := range filterKinds {
		t.Run(k.name, func(t *testing.T) {
			h := newHierarchy(t, true)
			e, _ := k.build(baseConfig(true), h)
			line := isa.Addr(0x40_0000)
			h.InsertL0(line)
			h.InsertL0(line + 64)
			k.queueTwo(e, line, 1)
			e.Tick(0)
			var r stats.Results
			e.CollectStats(&r)
			if r.PrefetchesIssued != 0 || r.PrefetchSources[k.l0Source] != 2 || r.PrefetchSources.Total() != 2 {
				t.Errorf("issued %d, sources %+v; want 0 issued and both candidates on source %v",
					r.PrefetchesIssued, r.PrefetchSources, k.l0Source)
			}
		})
	}
}
