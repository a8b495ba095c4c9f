package core

import (
	"fmt"
	"strings"

	"clgp/internal/cacti"
	"clgp/internal/memory"
	"clgp/internal/prefetch"
)

// EngineKind selects the instruction-delivery scheme.
type EngineKind int

const (
	// EngineNone is the baseline without prefetching.
	EngineNone EngineKind = iota
	// EngineNextN is next-N-line sequential prefetching (ablation).
	EngineNextN
	// EngineFDP is Fetch Directed Prefetching.
	EngineFDP
	// EngineCLGP is Cache Line Guided Prestaging (the paper's proposal).
	EngineCLGP
)

// String names the engine kind.
func (k EngineKind) String() string {
	switch k {
	case EngineNone:
		return "none"
	case EngineNextN:
		return "nextn"
	case EngineFDP:
		return "fdp"
	case EngineCLGP:
		return "clgp"
	default:
		return fmt.Sprintf("engine(%d)", int(k))
	}
}

// ParseEngineKind maps an engine name (as produced by EngineKind.String,
// case-insensitively) to its kind.
func ParseEngineKind(s string) (EngineKind, error) {
	switch strings.ToLower(s) {
	case "none":
		return EngineNone, nil
	case "nextn":
		return EngineNextN, nil
	case "fdp":
		return EngineFDP, nil
	case "clgp":
		return EngineCLGP, nil
	}
	return 0, fmt.Errorf("core: unknown engine %q (none|nextn|fdp|clgp)", s)
}

// Config describes one simulated processor configuration (one curve point of
// the paper's figures).
type Config struct {
	// Name labels the configuration in reports (e.g. "CLGP + L0 + PB:16").
	Name string

	// Tech is the technology node (0.09um or 0.045um in the paper).
	Tech cacti.Tech
	// L1ISize is the L1 instruction cache size in bytes (the swept axis),
	// one of cacti.L1Sizes. The L1 I-cache is not pipelined; its latency is
	// Table 3's.
	L1ISize int
	// UseL0 adds the one-cycle L0 cache sized by the node's one-cycle
	// capacity (512B at 90nm, 256B at 45nm).
	UseL0 bool
	// IdealICache makes every instruction fetch a one-cycle hit (Figure 1).
	IdealICache bool

	// Engine selects the prefetching scheme.
	Engine EngineKind
	// PreBufferEntries is the pre-buffer size in lines; 0 selects the
	// node's default (the largest one-cycle buffer: 8 at 90nm, 4 at 45nm).
	PreBufferEntries int

	// NoSkip disables the event-horizon clock and ticks every cycle
	// individually (the reference mode). Results are bit-identical either
	// way — skipping is purely a simulator-speed optimisation — so NoSkip
	// exists for equivalence tests and as the ns/cycle baseline the perf
	// gate measures the fast-forward win against.
	NoSkip bool
}

// The Table 2 front-end parameters every configuration shares; the back end
// and the stream predictor are pipeline.DefaultConfig and bpred.DefaultConfig.
const (
	// fetchWidth is the number of fetched instructions dispatched per cycle.
	fetchWidth = 4
	// redirectPenalty is the number of cycles between branch resolution and
	// the predictor restarting on the correct path.
	redirectPenalty = 3
)

// DefaultPreBufferEntries returns the largest pre-buffer that is accessible
// in one cycle at the node: 8 entries (512B) at 0.09um, 4 entries (256B) at
// 0.045um.
func DefaultPreBufferEntries(tech cacti.Tech) int {
	return cacti.OneCycleCapacity(tech) / 64
}

// DefaultL0Size returns the L0 size used with UseL0 (the one-cycle capacity
// of the node).
func DefaultL0Size(tech cacti.Tech) int { return cacti.OneCycleCapacity(tech) }

func (c Config) normalise() (Config, error) {
	if c.Engine < EngineNone || c.Engine > EngineCLGP {
		return c, fmt.Errorf("core: unknown engine kind %d", c.Engine)
	}
	if c.PreBufferEntries < 0 {
		return c, fmt.Errorf("core: pre-buffer entries must be non-negative, got %d", c.PreBufferEntries)
	}
	if c.PreBufferEntries == 0 {
		c.PreBufferEntries = DefaultPreBufferEntries(c.Tech)
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("%s/%s/L1=%dB", c.Engine, c.Tech, c.L1ISize)
	}
	return c, nil
}

// memoryConfig derives the hierarchy configuration.
func (c Config) memoryConfig() memory.Config {
	mc := memory.DefaultConfig(c.Tech, c.L1ISize)
	mc.IdealICache = c.IdealICache
	if c.UseL0 {
		mc.L0Size = DefaultL0Size(c.Tech)
	}
	return mc
}

// engineConfig derives the prefetch engine configuration.
func (c Config) engineConfig() prefetch.Config {
	return prefetch.Config{
		LineBytes:     64,
		QueueBlocks:   8,
		BufferEntries: c.PreBufferEntries,
		BufferLatency: cacti.PreBufferPipelineDepth(c.PreBufferEntries, 64, c.Tech),
		HasL0:         c.UseL0,
	}
}
