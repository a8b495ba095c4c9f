package prefetch

import (
	"clgp/internal/isa"
	"clgp/internal/memory"
	"clgp/internal/stats"
)

// nextNDegree is the number of sequential lines NextN prefetches for each
// line the fetch stage consumes.
const nextNDegree = 2

// NextNEngine implements classic next-N-line sequential prefetching (Smith),
// included as a related-work ablation: whenever the fetch stage consumes a
// line, the next nextNDegree sequential lines become prefetch candidates. It
// shares FDP's filtering and prefetch-buffer semantics (entries freed on
// use, line transferred to L0/L1), but counts a candidate the L0 filters out
// as an L1 source.
type NextNEngine struct {
	filterEngine
}

// NewNextN creates a next-N-line prefetching engine.
func NewNextN(cfg Config, mem *memory.Hierarchy) (*NextNEngine, error) {
	f, err := newFilterEngine("nextn", stats.SrcL1, cfg, mem)
	if err != nil {
		return nil, err
	}
	return &NextNEngine{f}, nil
}

// PopFetch implements Engine: consuming a line makes the next nextNDegree
// sequential lines prefetch candidates.
func (e *NextNEngine) PopFetch() {
	req, ok := e.NextFetch()
	e.blockCursor.PopFetch()
	if !ok {
		return
	}
	for i := 1; i <= nextNDegree; i++ {
		if !e.candidates.push(req.Line + isa.Addr(i*e.cfg.LineBytes)) {
			break
		}
	}
}
