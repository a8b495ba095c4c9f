package pipeline

import (
	"clgp/internal/clock"
	"clgp/internal/isa"
	"clgp/internal/memory"
)

// walkBackend is the reference model the scheduler is checked against:
// Dispatch, TickInto, NextEvent and SquashWrongPath written as the plainest
// statement of the back-end's semantics. Every ticked cycle it walks the
// whole RUU in program order, re-testing every dispatched entry's issue
// delay and dependences and every issued entry's completion, so no derived
// index can drift from the RUU.
type walkBackend struct {
	cfg     Config
	mem     *memory.Hierarchy
	pool    *Pool
	ruu     []*DynInst
	ruuMask int
	ruuHead int
	ruuN    int

	nextEv   uint64
	readyNow bool

	regProducer [isa.NumRegs]depRef

	committed    uint64
	wrongSquash  uint64
	loadsExec    uint64
	storesExec   uint64
	resolvedMisp uint64
}

func newWalkBackend(cfg Config, mem *memory.Hierarchy) *walkBackend {
	cfg, err := cfg.normalise()
	if err != nil {
		panic(err)
	}
	ringLen := 1
	for ringLen < cfg.RUUSize {
		ringLen <<= 1
	}
	return &walkBackend{cfg: cfg, mem: mem, ruu: make([]*DynInst, ringLen), ruuMask: ringLen - 1, nextEv: clock.None}
}

func (b *walkBackend) ruuAt(i int) *DynInst { return b.ruu[(b.ruuHead+i)&b.ruuMask] }

func (b *walkBackend) Dispatch(d *DynInst, now uint64) bool {
	if b.ruuN >= b.cfg.RUUSize {
		return false
	}
	d.state = stateDispatched
	d.issueAt = now + b.cfg.issueDelay()
	if !d.WrongPath {
		if d.Static.Src1 != isa.RegZero {
			d.deps[0] = b.regProducer[d.Static.Src1]
		}
		if d.Static.Src2 != isa.RegZero {
			d.deps[1] = b.regProducer[d.Static.Src2]
		}
		if d.Static.Dst != isa.RegZero {
			b.regProducer[d.Static.Dst] = depRef{d: d, seq: d.Seq}
		}
	}
	b.ruu[(b.ruuHead+b.ruuN)&b.ruuMask] = d
	b.ruuN++
	b.nextEv = clock.Min(b.nextEv, d.issueAt)
	return true
}

func (b *walkBackend) TickInto(now uint64, buf []*DynInst) (committed []*DynInst, resolved *DynInst) {
	committed = buf
	if b.ruuN > 0 && !b.readyNow && b.nextEv > now {
		return committed, nil
	}
	nextEv := clock.None
	readyNow := false
	issued := 0
	for i := 0; i < b.ruuN; i++ {
		d := b.ruuAt(i)
		switch d.state {
		case stateDispatched:
			if now < d.issueAt {
				nextEv = clock.Min(nextEv, d.issueAt)
				continue
			}
			if !d.deps[0].done(now) || !d.deps[1].done(now) {
				continue
			}
			if issued >= b.cfg.Width {
				readyNow = true
				continue
			}
			issued++
			b.issue(d, now)
			if d.state == stateWaitingMem {
				if d.memReq != nil {
					nextEv = clock.Min(nextEv, d.memReq.NextEvent(now))
				} else {
					readyNow = true
				}
			} else {
				nextEv = clock.Min(nextEv, d.completAt)
			}
		case stateWaitingMem:
			if d.memReq == nil {
				readyNow = true
			} else if d.memReq.Ready(now) {
				if b.mem != nil {
					b.mem.Release(d.memReq)
				}
				d.memReq = nil
				d.completAt = now
				d.state = stateCompleted
			} else {
				nextEv = clock.Min(nextEv, d.memReq.NextEvent(now))
			}
		case stateIssued:
			if now >= d.completAt {
				d.state = stateCompleted
			} else {
				nextEv = clock.Min(nextEv, d.completAt)
			}
		}
		if d.state == stateCompleted && d.MispredictedBranch && resolved == nil && d.completAt == now {
			resolved = d
			b.resolvedMisp++
		}
	}
	for b.ruuN > 0 && len(committed)-len(buf) < b.cfg.Width {
		head := b.ruu[b.ruuHead]
		if head.WrongPath || head.state != stateCompleted || head.completAt > now {
			break
		}
		b.ruu[b.ruuHead] = nil
		b.ruuHead = (b.ruuHead + 1) & b.ruuMask
		b.ruuN--
		b.committed++
		committed = append(committed, head)
	}
	if b.ruuN > 0 {
		if head := b.ruu[b.ruuHead]; !head.WrongPath && head.state == stateCompleted {
			readyNow = true
		}
	}
	b.nextEv, b.readyNow = nextEv, readyNow
	return committed, resolved
}

func (b *walkBackend) issue(d *DynInst, now uint64) {
	cls := d.Static.Class
	switch {
	case cls == isa.OpLoad:
		b.loadsExec++
		if b.mem != nil && !d.WrongPath {
			d.memReq = b.mem.AccessData(d.EffAddr, now, false)
			d.state = stateWaitingMem
			return
		}
		d.completAt = now + 1
		d.state = stateIssued
	case cls == isa.OpStore:
		b.storesExec++
		if b.mem != nil && !d.WrongPath {
			b.mem.Release(b.mem.AccessData(d.EffAddr, now, true))
		}
		d.completAt = now + 1
		d.state = stateIssued
	default:
		d.completAt = now + uint64(cls.ExecLatency())
		d.state = stateIssued
	}
}

func (b *walkBackend) NextEvent(now uint64) uint64 {
	if b.ruuN == 0 {
		return clock.None
	}
	if b.readyNow || b.nextEv <= now {
		return now
	}
	return b.nextEv
}

func (b *walkBackend) SquashWrongPath() int {
	n := 0
	w := 0
	for r := 0; r < b.ruuN; r++ {
		d := b.ruuAt(r)
		if d.WrongPath {
			n++
			if b.pool != nil {
				b.pool.Put(d)
			}
			continue
		}
		b.ruu[(b.ruuHead+w)&b.ruuMask] = d
		w++
	}
	for i := w; i < b.ruuN; i++ {
		b.ruu[(b.ruuHead+i)&b.ruuMask] = nil
	}
	b.ruuN = w
	b.wrongSquash += uint64(n)
	b.readyNow = true
	return n
}
