package pipeline

import (
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/isa"
	"clgp/internal/memory"
)

// FuzzBackendMatchesWalk drives the wakeup/select scheduler and the RUU-walk
// reference (walkBackend) with the same random instruction stream, each over
// its own identically configured memory hierarchy, and requires them to agree
// on every cycle: the committed sequence numbers, the resolved branch, the
// event horizon and every counter. The committed corpus under
// testdata/fuzz/FuzzBackendMatchesWalk runs under plain go test.
func FuzzBackendMatchesWalk(f *testing.F) {
	f.Add([]byte("\x03\x10\x08\x05\x01\x31\x09\x02\x85\x11\x0a\x20\x00\x3f\x1b\x10\x03\x52\x13\x1f\x04\x0c\x21\x40\x01\x00\x00\x1f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesWalk(t, data)
	})
}

// fuzzBytes hands out the fuzz input one byte at a time, reading zeros once
// it is exhausted (a zero control byte dispatches nothing, so an exhausted
// stream drains the machine).
type fuzzBytes struct {
	data []byte
	pos  int
}

// maxFuzzBytes bounds the stream read from one input, and with it the run.
const maxFuzzBytes = 4096

func (s *fuzzBytes) next() byte {
	if s.pos >= len(s.data) || s.pos >= maxFuzzBytes {
		return 0
	}
	s.pos++
	return s.data[s.pos-1]
}

func (s *fuzzBytes) exhausted() bool { return s.pos >= len(s.data) || s.pos >= maxFuzzBytes }

var fuzzClasses = [...]isa.OpClass{isa.OpALU, isa.OpMul, isa.OpFP, isa.OpLoad, isa.OpStore, isa.OpBranch}

// fuzzReg maps three bits to a register: 0 is "none", 1..7 a small set that
// makes dependences common.
func fuzzReg(v byte) uint8 {
	if v&7 == 0 {
		return isa.RegZero
	}
	return v & 7
}

// checkMatchesWalk decodes one stream and runs it through both back-ends.
//
// Layout: four configuration bytes (width, RUU size, pipeline depth,
// front-end stages; the top bit of the first selects "no memory
// hierarchy"), then per cycle one control byte — low nibble 15 squashes the
// wrong path, the high nibble picks how many instructions to deliver — and
// three bytes per delivered instruction: class and mispredict flag, two
// source registers, destination register and data line. The back-end does
// not care which class carries the mispredict flag, so any may, which lets
// instructions of different latencies resolve in the same cycle. A
// mispredicted correct-path instruction starts a wrong-path run, which ends
// at the next squash.
func checkMatchesWalk(t *testing.T, data []byte) {
	in := &fuzzBytes{data: data}
	c0 := in.next()
	cfg := Config{Width: 1 + int(c0%4)}
	cfg.RUUSize = cfg.Width + int(in.next()%29)
	cfg.PipelineDepth = 6 + int(in.next()%12)
	cfg.FrontEndStages = 1 + int(in.next()%8)
	var memA, memB *memory.Hierarchy
	if c0&0x80 == 0 {
		memCfg := memory.DefaultConfig(cacti.Tech45, 4<<10)
		memA, memB = memory.MustNew(memCfg), memory.MustNew(memCfg)
	}
	got := MustNew(cfg, memA)
	want := newWalkBackend(cfg, memB)
	poolA, poolB := NewPool(0), NewPool(0)
	got.SetPool(poolA)
	want.pool = poolB

	var seq uint64
	wrongPath := false
	var pendA, pendB *DynInst // delivered but refused by a full RUU; retried first
	bufA := make([]*DynInst, 0, cfg.Width)
	bufB := make([]*DynInst, 0, cfg.Width)
	const maxCycles = 1 << 20
	for now := uint64(0); now < maxCycles; now++ {
		if memA != nil {
			memA.Tick(now)
			memB.Tick(now)
		}
		cA, rA := got.TickInto(now, bufA[:0])
		cB, rB := want.TickInto(now, bufB[:0])
		if len(cA) != len(cB) {
			t.Fatalf("cycle %d: committed %d instructions, walk committed %d", now, len(cA), len(cB))
		}
		for i := range cA {
			if cA[i].Seq != cB[i].Seq {
				t.Fatalf("cycle %d: commit slot %d is seq %d, walk has %d", now, i, cA[i].Seq, cB[i].Seq)
			}
		}
		if (rA == nil) != (rB == nil) || (rA != nil && rA.Seq != rB.Seq) {
			t.Fatalf("cycle %d: resolved %v, walk resolved %v", now, seqOf(rA), seqOf(rB))
		}
		for i := range cA {
			poolA.Put(cA[i])
			poolB.Put(cB[i])
		}

		ctl := in.next()
		if rA != nil || ctl&15 == 15 {
			if nA, nB := got.SquashWrongPath(), want.SquashWrongPath(); nA != nB {
				t.Fatalf("cycle %d: squashed %d, walk squashed %d", now, nA, nB)
			}
			wrongPath = false
			// Like the core's dispatch queue, a refused wrong-path
			// instruction is flushed with the rest of the wrong path.
			if pendA != nil && pendA.WrongPath {
				poolA.Put(pendA)
				poolB.Put(pendB)
				pendA, pendB = nil, nil
			}
		}
		for k := int(ctl>>4) % (cfg.Width + 1); k > 0 || pendA != nil; k-- {
			if pendA == nil {
				if k <= 0 {
					break
				}
				b0, b1, b2 := in.next(), in.next(), in.next()
				si := &isa.StaticInst{
					PC:    isa.Addr(0x1000 + 4*seq),
					Class: fuzzClasses[int(b0&0x3f)%len(fuzzClasses)],
					Src1:  fuzzReg(b1),
					Src2:  fuzzReg(b1 >> 3),
					Dst:   fuzzReg(b2),
				}
				seq++
				pendA, pendB = poolA.Get(), poolB.Get()
				for _, d := range [...]*DynInst{pendA, pendB} {
					d.Static = si
					d.Seq = seq
					d.WrongPath = wrongPath
					d.MispredictedBranch = b0>>6 == 3
					d.EffAddr = isa.Addr(0x9000_0000 + 64*uint64(b2>>3))
					d.FetchedAt = now
				}
				if pendA.MispredictedBranch && !wrongPath {
					wrongPath = true
				}
			}
			okA, okB := got.Dispatch(pendA, now), want.Dispatch(pendB, now)
			if okA != okB {
				t.Fatalf("cycle %d: dispatch accepted=%v, walk accepted=%v", now, okA, okB)
			}
			if !okA {
				break
			}
			pendA, pendB = nil, nil
		}

		if a, b := got.NextEvent(now), want.NextEvent(now); a != b {
			t.Fatalf("cycle %d: NextEvent %d, walk %d", now, a, b)
		}
		if a, b := got.counters(), want.counters(); a != b || got.ruuN != want.ruuN {
			t.Fatalf("cycle %d: counters %+v (occupancy %d), walk %+v (occupancy %d)", now, a, got.ruuN, b, want.ruuN)
		}
		if in.exhausted() && pendA == nil && got.Drained() {
			return
		}
	}
	t.Fatalf("stream did not drain within %d cycles (occupancy %d)", maxCycles, got.Occupancy())
}

func seqOf(d *DynInst) any {
	if d == nil {
		return nil
	}
	return d.Seq
}

// backendCounters is every statistic a back-end keeps.
type backendCounters struct {
	committed, wrongSquash, loadsExec, storesExec, resolvedMisp uint64
}

func (b *Backend) counters() backendCounters {
	return backendCounters{b.committed, b.wrongSquash, b.loadsExec, b.storesExec, b.resolvedMisp}
}

func (b *walkBackend) counters() backendCounters {
	return backendCounters{b.committed, b.wrongSquash, b.loadsExec, b.storesExec, b.resolvedMisp}
}
