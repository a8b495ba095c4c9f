package memory

import (
	"testing"
	"testing/quick"

	"clgp/internal/cacti"
	"clgp/internal/isa"
	"clgp/internal/stats"
)

func testConfig(l1Size int, l0 bool) Config {
	cfg := DefaultConfig(cacti.Tech45, l1Size)
	if l0 {
		cfg.L0Size = 256
	}
	return cfg
}

func TestKindString(t *testing.T) {
	if KindIFetch.String() != "ifetch" || KindIPrefetch.String() != "iprefetch" || KindData.String() != "data" {
		t.Errorf("kind names wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Errorf("unknown kind string wrong")
	}
}

func TestConfigNormalisation(t *testing.T) {
	cfg := DefaultConfig(cacti.Tech45, 4<<10)
	h := MustNew(cfg)
	if got := h.L2().Latency(); got != 24 {
		t.Errorf("L2 latency = %d, want 24 (Table 3)", got)
	}
	if got := cacti.MemoryLatency(); got != 200 {
		t.Errorf("memory latency = %d, want 200 (Table 2)", got)
	}
	// The L1 latency must come from Table 3 (4KB at 45nm = 4 cycles).
	if h.L1ILatency() != 4 {
		t.Errorf("hierarchy L1ILatency = %d, want 4 (Table 3)", h.L1ILatency())
	}
	if h.HasL0() || h.L0() != nil {
		t.Errorf("default config should have no L0")
	}
	// Invalid configs.
	if _, err := New(Config{Tech: cacti.Tech(42), L1ISize: 1024}); err == nil {
		t.Errorf("bad tech should error")
	}
	if _, err := New(Config{Tech: cacti.Tech90, L1ISize: 0}); err == nil {
		t.Errorf("zero L1 size should error")
	}
	if _, err := New(Config{Tech: cacti.Tech90, L1ISize: 1024, L0Size: -1}); err == nil {
		t.Errorf("negative L0 size should error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustNew should panic")
		}
	}()
	MustNew(Config{})
}

func TestIFetchL1HitTiming(t *testing.T) {
	h := MustNew(testConfig(4<<10, false))
	line := isa.Addr(0x40_0000)
	// Warm the L1 via a miss + fill.
	r := h.AccessIFetch(line, 0, true, false)
	if r.Scheduled() {
		t.Fatalf("cold access should need the bus")
	}
	h.Tick(0)
	if !r.Scheduled() {
		t.Fatalf("request should be scheduled after a bus grant")
	}
	if r.Source != stats.SrcMem {
		t.Errorf("cold L2 should miss to memory, got %v", r.Source)
	}
	// L2(24) + memory(200) from grant cycle 0.
	if r.ReadyAt() != 224 {
		t.Errorf("ReadyAt = %d, want 224", r.ReadyAt())
	}
	if !r.Ready(224) || r.Ready(223) {
		t.Errorf("Ready gate wrong")
	}

	// Second access: L1 hit with the Table 3 latency.
	r2 := h.AccessIFetch(line+4, 300, true, false)
	if !r2.Scheduled() || r2.Source != stats.SrcL1 {
		t.Fatalf("second access should hit L1: %+v", r2)
	}
	if r2.ReadyAt() != 304 {
		t.Errorf("L1 hit ready at %d, want 304 (4-cycle latency)", r2.ReadyAt())
	}
}

func TestIFetchL0Hit(t *testing.T) {
	cfg := testConfig(4<<10, true)
	h := MustNew(cfg)
	line := isa.Addr(0x40_0000)
	r := h.AccessIFetch(line, 0, true, true)
	h.Tick(0)
	if !r.Scheduled() {
		t.Fatalf("request not scheduled")
	}
	// After the demand fill, both L0 and L1 hold the line.
	r2 := h.AccessIFetch(line, 300, true, true)
	if r2.Source != stats.SrcL0 {
		t.Fatalf("should hit in L0, got %v", r2.Source)
	}
	if r2.ReadyAt() != 301 {
		t.Errorf("L0 hit should be one cycle, ready at %d", r2.ReadyAt())
	}
}

func TestIdealICacheMode(t *testing.T) {
	cfg := testConfig(4<<10, false)
	cfg.IdealICache = true
	h := MustNew(cfg)
	r := h.AccessIFetch(0x1234, 10, true, false)
	if !r.Scheduled() || r.Source != stats.SrcL1 || r.ReadyAt() != 11 {
		t.Errorf("ideal fetch = %+v", r)
	}
}

func TestNonPipelinedL1Occupancy(t *testing.T) {
	cfg := testConfig(4<<10, false) // 4-cycle L1 at 45nm, not pipelined
	h := MustNew(cfg)
	line1 := isa.Addr(0x40_0000)
	line2 := isa.Addr(0x40_0040)
	// Warm both lines.
	a := h.AccessIFetch(line1, 0, true, false)
	b := h.AccessIFetch(line2, 0, true, false)
	h.Tick(0)
	h.Tick(1)
	_ = a
	_ = b
	// Two back-to-back L1 hits: the second is delayed by the occupancy of
	// the non-pipelined array.
	r1 := h.AccessIFetch(line1, 1000, true, false)
	r2 := h.AccessIFetch(line2, 1001, true, false)
	if r1.ReadyAt() != 1004 {
		t.Errorf("first hit ready at %d, want 1004", r1.ReadyAt())
	}
	if r2.ReadyAt() <= r1.ReadyAt() {
		t.Errorf("second hit (%d) should be delayed past the first (%d)", r2.ReadyAt(), r1.ReadyAt())
	}
}

func TestBusPriorityDemandOverPrefetch(t *testing.T) {
	h := MustNew(testConfig(1<<10, false))
	// Enqueue a prefetch first, then a data access; the data access must be
	// granted first.
	pf := h.AccessIPrefetch(0x40_0000, 5)
	ld := h.AccessData(0x9000_0000, 5, false)
	if pf.Scheduled() || ld.Scheduled() {
		t.Fatalf("both should be waiting for the bus")
	}
	h.Tick(5)
	if !ld.Scheduled() || pf.Scheduled() {
		t.Errorf("data access should win arbitration (ld=%v pf=%v)", ld.Scheduled(), pf.Scheduled())
	}
	h.Tick(6)
	if !pf.Scheduled() {
		t.Errorf("prefetch should be granted on the following cycle")
	}
	var res stats.Results
	h.Stats(&res)
	if res.BusConflicts == 0 {
		t.Errorf("bus conflict cycles should be counted")
	}
}

func TestPrefetchFromL1(t *testing.T) {
	// With an L0, prefetches look in the L1 first.
	h := MustNew(testConfig(4<<10, true))
	line := isa.Addr(0x40_0000)
	// Warm the L1.
	r := h.AccessIFetch(line, 0, true, false)
	h.Tick(0)
	_ = r
	// Prefetch of a line resident in L1: served by the L1 without the bus.
	pf := h.AccessIPrefetch(line, 500)
	if !pf.Scheduled() || pf.Source != stats.SrcL1 {
		t.Errorf("prefetch should be served by L1: %+v", pf)
	}
	if pf.ReadyAt() != 500+uint64(h.L1ILatency()) {
		t.Errorf("prefetch ready at %d", pf.ReadyAt())
	}
	// Prefetch of an absent line goes over the bus to the L2.
	pf2 := h.AccessIPrefetch(0x40_4000, 500)
	if pf2.Scheduled() {
		t.Errorf("absent line prefetch should wait for the bus")
	}
	h.Tick(500)
	if !pf2.Scheduled() || (pf2.Source != stats.SrcL2 && pf2.Source != stats.SrcMem) {
		t.Errorf("prefetch source = %v", pf2.Source)
	}
	// Without an L0, even an L1-resident line goes to the bus.
	cfg2 := testConfig(4<<10, false)
	h2 := MustNew(cfg2)
	r2 := h2.AccessIFetch(line, 0, true, false)
	h2.Tick(0)
	_ = r2
	pf3 := h2.AccessIPrefetch(line, 600)
	if pf3.Scheduled() {
		t.Errorf("prefetch should use the bus without an L0")
	}
}

func TestDataAccessPath(t *testing.T) {
	h := MustNew(testConfig(4<<10, false))
	addr := isa.Addr(0x9000_0000)
	// Cold load: misses to memory via the bus.
	ld := h.AccessData(addr, 0, false)
	if ld.Scheduled() {
		t.Fatalf("cold load should need the bus")
	}
	h.Tick(0)
	if !ld.Scheduled() || ld.Source != stats.SrcMem {
		t.Errorf("cold load source = %v", ld.Source)
	}
	// After the fill, the same line hits in one cycle.
	ld2 := h.AccessData(addr+8, 300, false)
	if !ld2.Scheduled() || ld2.Source != stats.SrcL1 || ld2.ReadyAt() != 301 {
		t.Errorf("warm load = %+v", ld2)
	}
	// Stores never stall: they hit or write-allocate immediately.
	st := h.AccessData(0xa000_0000, 400, true)
	if !st.Scheduled() || st.ReadyAt() != 401 {
		t.Errorf("store = %+v", st)
	}
	var res stats.Results
	h.Stats(&res)
	if res.DCacheAccesses == 0 || res.DCacheMisses == 0 {
		t.Errorf("D-cache stats not recorded: %+v", res)
	}
}

func TestL2HitAfterMemoryFill(t *testing.T) {
	h := MustNew(testConfig(1<<10, false))
	lineA := isa.Addr(0x40_0000)
	lineB := isa.Addr(0x40_0040) // same 128B L2 line as lineA
	r1 := h.AccessIFetch(lineA, 0, true, false)
	h.Tick(0)
	if r1.Source != stats.SrcMem {
		t.Fatalf("first access should come from memory")
	}
	// The second line shares the L2 line, so it should now hit in L2. Evict
	// it from the tiny L1 first by filling other lines.
	for i := 0; i < 64; i++ {
		rr := h.AccessIFetch(isa.Addr(0x50_0000+i*64), uint64(10+i), true, false)
		h.Tick(uint64(10 + i))
		_ = rr
	}
	r2 := h.AccessIFetch(lineB, 1000, true, false)
	if r2.Scheduled() {
		t.Fatalf("lineB should miss L1")
	}
	h.Tick(1000)
	if r2.Source != stats.SrcL2 {
		t.Errorf("lineB should hit in L2, got %v", r2.Source)
	}
	if r2.ReadyAt() != 1000+24 {
		t.Errorf("L2 hit ready at %d, want 1024", r2.ReadyAt())
	}
}

func TestCancelPrefetches(t *testing.T) {
	h := MustNew(testConfig(4<<10, false))
	p1 := h.AccessIPrefetch(0x40_0000, 0)
	p2 := h.AccessIPrefetch(0x40_0040, 0)
	d := h.AccessData(0x9000_0000, 0, false)
	if n := h.CancelPrefetches(); n != 2 {
		t.Errorf("cancelled %d prefetches, want 2", n)
	}
	h.Tick(0)
	h.Tick(1)
	h.Tick(2)
	if p1.Scheduled() || p2.Scheduled() {
		t.Errorf("cancelled prefetches must never be scheduled")
	}
	if !d.Scheduled() {
		t.Errorf("demand request should still be scheduled")
	}
	if h.PendingBusRequests() != 0 {
		t.Errorf("pending = %d", h.PendingBusRequests())
	}
}

func TestInsertHelpers(t *testing.T) {
	h := MustNew(testConfig(4<<10, true))
	h.InsertL1I(0x40_0044)
	if !h.L1I().Probe(0x40_0040) {
		t.Errorf("InsertL1I did not install the line")
	}
	h.InsertL0(0x40_0084)
	if !h.L0().Probe(0x40_0080) {
		t.Errorf("InsertL0 did not install the line")
	}
	// InsertL0 without an L0 is a no-op.
	h2 := MustNew(testConfig(4<<10, false))
	h2.InsertL0(0x40_0000)
}

// TestRequestsAlwaysCompleteProperty: any mix of accesses eventually gets a
// scheduled completion time once the bus is ticked enough, and ready times
// never precede the issue cycle.
func TestRequestsAlwaysCompleteProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		h := MustNew(testConfig(2<<10, true))
		var reqs []*Request
		now := uint64(0)
		for _, op := range ops {
			addr := isa.Addr(0x40_0000 + int(op)*64)
			switch op % 3 {
			case 0:
				reqs = append(reqs, h.AccessIFetch(addr, now, true, true))
			case 1:
				reqs = append(reqs, h.AccessIPrefetch(addr, now))
			case 2:
				reqs = append(reqs, h.AccessData(addr, now, op%2 == 0))
			}
			h.Tick(now)
			now++
		}
		// Drain the bus.
		for i := 0; i < len(ops)+4; i++ {
			h.Tick(now)
			now++
		}
		for _, r := range reqs {
			if !r.Scheduled() {
				return false
			}
			if r.ReadyAt() < r.issuedAt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCancelPrefetchesInterleavedWithGrants exercises the pending-prefetch
// index across grants: prefetches granted before the flush must complete
// normally and only the still-waiting ones must be cancelled, regardless of
// the order the index tracked them in.
func TestCancelPrefetchesInterleavedWithGrants(t *testing.T) {
	h := MustNew(testConfig(4<<10, false))
	var reqs []*Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, h.AccessIPrefetch(isa.Addr(0x40_0000+i*64), 0))
	}
	// Grant two of them (no higher-priority traffic, so FIFO order).
	h.Tick(0)
	h.Tick(1)
	if !reqs[0].Scheduled() || !reqs[1].Scheduled() {
		t.Fatalf("first two prefetches should have been granted")
	}
	if n := h.CancelPrefetches(); n != 3 {
		t.Errorf("cancelled %d prefetches, want 3", n)
	}
	for i, r := range reqs {
		granted := i < 2
		if r.Scheduled() != granted || r.Cancelled() == granted {
			t.Errorf("prefetch %d: scheduled=%v cancelled=%v, want granted=%v",
				i, r.Scheduled(), r.Cancelled(), granted)
		}
		h.Release(r)
	}
	if h.PendingBusRequests() != 0 {
		t.Errorf("pending = %d after flush", h.PendingBusRequests())
	}

	// The index must be reusable after a flush: new prefetches enqueue,
	// grant and cancel cleanly.
	p := h.AccessIPrefetch(0x41_0000, 10)
	if n := h.CancelPrefetches(); n != 1 {
		t.Errorf("second-round cancel got %d, want 1", n)
	}
	if !p.Cancelled() {
		t.Errorf("second-round prefetch not cancelled")
	}
	h.Release(p)
}
