package prefetch

import (
	"clgp/internal/ftq"
	"clgp/internal/memory"
	"clgp/internal/stats"
)

// FDPEngine implements Fetch Directed Prefetching (Reinman, Calder, Austin)
// with Enqueue Cache Probe Filtering, the strongest FDP variant per the
// paper: before enqueuing a prefetch, the I-cache tags (and L0 tags when an
// L0 is present) are probed and already-resident lines are not prefetched.
// Prefetched lines wait in a prefetch buffer; on a fetch-stage hit the line
// is transferred to the L0 (or L1 when there is no L0) and the buffer entry
// is freed for new prefetches. Every line of an enqueued fetch block becomes
// a prefetch candidate.
type FDPEngine struct {
	filterEngine
}

// NewFDP creates an FDP engine bound to the memory hierarchy.
func NewFDP(cfg Config, mem *memory.Hierarchy) (*FDPEngine, error) {
	f, err := newFilterEngine("fdp", stats.SrcL0, cfg, mem)
	if err != nil {
		return nil, err
	}
	return &FDPEngine{f}, nil
}

// EnqueueBlock implements Engine: the block enters the FTQ and its lines
// become prefetch candidates.
func (e *FDPEngine) EnqueueBlock(fb ftq.FetchBlock) bool {
	if !e.q.Push(fb) {
		return false
	}
	for i, n := 0, fb.NumLines(e.cfg.LineBytes); i < n; i++ {
		if !e.candidates.push(fb.LineAt(i, e.cfg.LineBytes)) {
			break
		}
	}
	return true
}
