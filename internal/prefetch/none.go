package prefetch

import (
	"clgp/internal/clock"
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/stats"
)

// NoneEngine is the baseline without prefetching: it keeps the decoupled
// front-end (FTQ) so every configuration shares the same branch predictor
// look-ahead, but has no pre-buffer and never issues prefetches.
type NoneEngine struct {
	blockCursor
}

// NewNone creates the no-prefetching baseline engine; the baseline never
// touches the hierarchy on its own.
func NewNone(cfg Config, _ *memory.Hierarchy) (*NoneEngine, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	bc, err := newBlockCursor(cfg)
	if err != nil {
		return nil, err
	}
	return &NoneEngine{bc}, nil
}

// Name implements Engine.
func (e *NoneEngine) Name() string { return "none" }

// LookupBuffer implements Engine; the baseline has no buffer.
func (e *NoneEngine) LookupBuffer(line isa.Addr, now uint64) (bool, int) { return false, 0 }

// Tick implements Engine; the baseline issues no prefetches.
func (e *NoneEngine) Tick(now uint64) {}

// NextEvent implements Engine: the baseline's Tick never does anything, so
// it never has an event.
func (e *NoneEngine) NextEvent(now uint64) uint64 { return clock.None }

// Flush implements Engine.
func (e *NoneEngine) Flush() { e.flush() }

// BufferLatency implements Engine.
func (e *NoneEngine) BufferLatency() int { return 0 }

// CollectStats implements Engine.
func (e *NoneEngine) CollectStats(r *stats.Results) {}
