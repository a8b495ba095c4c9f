// Package workload synthesises benchmark programs and dynamic traces that
// stand in for the SPECint2000 Alpha traces driving the paper's simulator.
//
// Each of the twelve profiles is named after one SPECint2000 program and is
// parameterised so that the properties the paper's results depend on fall in
// the right regime for that benchmark:
//
//   - the hot instruction footprint, which determines where in the
//     256B..64KB L1 sweep the working set stops fitting;
//   - the branch predictability, which determines how often the front-end
//     runs down wrong paths (and therefore how much the "emergency cache"
//     role of the L1/L0 matters for CLGP);
//   - call intensity and loop structure, which shape fetch-block lengths;
//   - the data-side footprint, which sets the back-end memory pressure and
//     therefore the achievable IPC ceiling.
//
// The generated program is a static CFG (functions made of basic blocks,
// registered in an isa.Dictionary so wrong-path fetch works) plus a dynamic
// trace obtained by walking the CFG with a seeded deterministic RNG.
package workload

import (
	"fmt"
	"math"
	"sort"

	"clgp/internal/isa"
)

// Profile parameterises one synthetic benchmark.
type Profile struct {
	// Name is the benchmark name (SPECint2000 names for the built-ins).
	Name string

	// HotCodeKB is the approximate hot instruction footprint in kilobytes.
	HotCodeKB int
	// FuncBlocks is the number of basic blocks per mid-level function.
	FuncBlocks int
	// AvgBlockInsts is the average basic block length in instructions.
	AvgBlockInsts int
	// LeafFuncs is the number of small leaf utility functions shared by all
	// mid-level functions.
	LeafFuncs int

	// LoopTakenBias is the taken probability of loop back-edges.
	LoopTakenBias float64
	// ForwardTakenBias is the taken probability of predictable forward
	// branches.
	ForwardTakenBias float64
	// NoisyBranchFrac is the fraction of conditional branches whose
	// direction is data-dependent (taken probability drawn near 0.5),
	// which the stream predictor cannot learn.
	NoisyBranchFrac float64
	// NoisyTakenBias is the taken probability used for noisy branches.
	NoisyTakenBias float64
	// CallFrac is the fraction of mid-function blocks that end in a call to
	// a leaf function.
	CallFrac float64

	// SkewFactor controls how skewed the execution frequency of the
	// mid-level functions is (higher = a few functions dominate, smaller
	// effective dynamic footprint relative to HotCodeKB).
	SkewFactor float64

	// LoadFrac and StoreFrac are the fractions of non-terminator
	// instructions that are loads and stores.
	LoadFrac, StoreFrac float64
	// MulFrac and FPFrac are the fractions of long-latency ALU operations.
	MulFrac, FPFrac float64
	// DataFootprintKB is the data working set size in kilobytes.
	DataFootprintKB int
	// RandomAccessFrac is the fraction of memory accesses that touch a
	// random address in the data footprint (the rest stride sequentially
	// and mostly hit in the 32KB D-cache).
	RandomAccessFrac float64
	// PointerChaseFrac is the fraction of memory accesses that follow a
	// serial pointer chain through the footprint: each chase address is a
	// deterministic function of the previous one, modelling the dependent
	// cache misses of linked-data traversals (mcf's network simplex,
	// twolf's netlists) that no amount of bandwidth hides. Unlike the
	// i.i.d. random draw, the chain makes consecutive chase accesses
	// serially correlated in the generated stream.
	PointerChaseFrac float64
	// DepDensity is the probability that an instruction's source register
	// was written by one of the few preceding instructions (higher = less
	// ILP available to the back-end).
	DepDensity float64
}

// Validate reports whether the profile's parameters are usable.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	if p.HotCodeKB <= 0 {
		return fmt.Errorf("workload %s: HotCodeKB must be positive", p.Name)
	}
	if p.FuncBlocks < 4 {
		return fmt.Errorf("workload %s: FuncBlocks must be at least 4", p.Name)
	}
	if p.AvgBlockInsts < 2 {
		return fmt.Errorf("workload %s: AvgBlockInsts must be at least 2", p.Name)
	}
	for _, frac := range []struct {
		name string
		v    float64
	}{
		{"LoopTakenBias", p.LoopTakenBias},
		{"ForwardTakenBias", p.ForwardTakenBias},
		{"NoisyBranchFrac", p.NoisyBranchFrac},
		{"NoisyTakenBias", p.NoisyTakenBias},
		{"CallFrac", p.CallFrac},
		{"LoadFrac", p.LoadFrac},
		{"StoreFrac", p.StoreFrac},
		{"MulFrac", p.MulFrac},
		{"FPFrac", p.FPFrac},
		{"RandomAccessFrac", p.RandomAccessFrac},
		{"PointerChaseFrac", p.PointerChaseFrac},
		{"DepDensity", p.DepDensity},
	} {
		if frac.v < 0 || frac.v > 1 {
			return fmt.Errorf("workload %s: %s must be within [0,1], got %g", p.Name, frac.name, frac.v)
		}
	}
	if p.LoadFrac+p.StoreFrac > 0.9 {
		return fmt.Errorf("workload %s: load+store fraction too high (%g)", p.Name, p.LoadFrac+p.StoreFrac)
	}
	if p.RandomAccessFrac+p.PointerChaseFrac > 1 {
		return fmt.Errorf("workload %s: random+pointer-chase fraction exceeds 1 (%g)",
			p.Name, p.RandomAccessFrac+p.PointerChaseFrac)
	}
	if p.DataFootprintKB <= 0 {
		return fmt.Errorf("workload %s: DataFootprintKB must be positive", p.Name)
	}
	if p.SkewFactor < 0 {
		return fmt.Errorf("workload %s: SkewFactor must be non-negative", p.Name)
	}
	// Every generated address must fit the in-memory trace's 32 bits.
	if float64(DataBase)+float64(p.DataFootprintKB)*1024 > addrSpace {
		return fmt.Errorf("workload %s: DataFootprintKB %d puts the data segment past the 32-bit address space",
			p.Name, p.DataFootprintKB)
	}
	// The image cap also keeps code far below 2^32.
	if code := maxCodeBytes(p); code > isa.MaxImageBytes {
		return fmt.Errorf("workload %s: code may span %.3g bytes, past the %d-byte program image cap",
			p.Name, code, isa.MaxImageBytes)
	}
	return nil
}

// addrSpace is the end of the 32-bit address space generated programs live
// in (see trace.MemTrace).
const addrSpace = 1 << 32

// maxCodeBytes bounds the size of the program buildProgram lays out for p:
// every leaf at its longest (5 blocks of at most 5 instructions), the mid
// functions at their longest blocks (AvgBlockInsts+2 body instructions plus
// a terminator), and the driver's guard and call blocks (at most 4 and 3
// instructions per mid function) plus its closing jump block. The last
// block's fall-through target is code end itself. It is computed in
// float64, exact far beyond 2^32, so no parameter can overflow it.
func maxCodeBytes(p Profile) float64 {
	funcBytes := float64(p.FuncBlocks) * float64(p.AvgBlockInsts) * isa.InstBytes
	numMid := math.Max(2, math.Ceil(float64(p.HotCodeKB)*1024/funcBytes))
	insts := 25*math.Max(0, float64(p.LeafFuncs)) +
		numMid*float64(p.FuncBlocks)*(float64(p.AvgBlockInsts)+3) +
		7*numMid + 3
	return insts * isa.InstBytes
}

// builtinProfiles are the twelve SPECint2000 stand-ins. Footprints and
// predictability are set from the qualitative behaviour reported for these
// benchmarks in the instruction-fetch literature: gzip/bzip2/mcf have tiny
// hot loops; gcc/eon/perlbmk/vortex/gap have large instruction working sets;
// mcf/twolf/vpr are hard on the branch predictor or the data cache.
var builtinProfiles = []Profile{
	{
		Name: "gzip", HotCodeKB: 3, FuncBlocks: 24, AvgBlockInsts: 7, LeafFuncs: 2,
		LoopTakenBias: 0.93, ForwardTakenBias: 0.25, NoisyBranchFrac: 0.06, NoisyTakenBias: 0.5,
		CallFrac: 0.04, SkewFactor: 1.2, LoadFrac: 0.24, StoreFrac: 0.10, MulFrac: 0.02, FPFrac: 0.0,
		DataFootprintKB: 192, RandomAccessFrac: 0.08, DepDensity: 0.35,
	},
	{
		Name: "vpr", HotCodeKB: 10, FuncBlocks: 20, AvgBlockInsts: 6, LeafFuncs: 3,
		LoopTakenBias: 0.90, ForwardTakenBias: 0.35, NoisyBranchFrac: 0.14, NoisyTakenBias: 0.55,
		CallFrac: 0.07, SkewFactor: 1.0, LoadFrac: 0.26, StoreFrac: 0.09, MulFrac: 0.03, FPFrac: 0.04,
		DataFootprintKB: 2048, RandomAccessFrac: 0.25, DepDensity: 0.45,
	},
	{
		Name: "gcc", HotCodeKB: 48, FuncBlocks: 28, AvgBlockInsts: 6, LeafFuncs: 6,
		LoopTakenBias: 0.88, ForwardTakenBias: 0.35, NoisyBranchFrac: 0.10, NoisyTakenBias: 0.55,
		CallFrac: 0.10, SkewFactor: 0.8, LoadFrac: 0.27, StoreFrac: 0.12, MulFrac: 0.02, FPFrac: 0.0,
		DataFootprintKB: 4096, RandomAccessFrac: 0.18, DepDensity: 0.40,
	},
	{
		Name: "mcf", HotCodeKB: 2, FuncBlocks: 16, AvgBlockInsts: 6, LeafFuncs: 2,
		LoopTakenBias: 0.90, ForwardTakenBias: 0.40, NoisyBranchFrac: 0.16, NoisyTakenBias: 0.5,
		CallFrac: 0.05, SkewFactor: 1.4, LoadFrac: 0.33, StoreFrac: 0.09, MulFrac: 0.02, FPFrac: 0.0,
		DataFootprintKB: 65536, RandomAccessFrac: 0.25, PointerChaseFrac: 0.45, DepDensity: 0.60,
	},
	{
		Name: "crafty", HotCodeKB: 24, FuncBlocks: 26, AvgBlockInsts: 7, LeafFuncs: 5,
		LoopTakenBias: 0.91, ForwardTakenBias: 0.28, NoisyBranchFrac: 0.08, NoisyTakenBias: 0.5,
		CallFrac: 0.09, SkewFactor: 1.0, LoadFrac: 0.27, StoreFrac: 0.07, MulFrac: 0.04, FPFrac: 0.0,
		DataFootprintKB: 1024, RandomAccessFrac: 0.15, DepDensity: 0.35,
	},
	{
		Name: "parser", HotCodeKB: 14, FuncBlocks: 22, AvgBlockInsts: 6, LeafFuncs: 4,
		LoopTakenBias: 0.89, ForwardTakenBias: 0.38, NoisyBranchFrac: 0.13, NoisyTakenBias: 0.55,
		CallFrac: 0.09, SkewFactor: 0.9, LoadFrac: 0.28, StoreFrac: 0.10, MulFrac: 0.02, FPFrac: 0.0,
		DataFootprintKB: 8192, RandomAccessFrac: 0.30, DepDensity: 0.45,
	},
	{
		Name: "eon", HotCodeKB: 56, FuncBlocks: 18, AvgBlockInsts: 7, LeafFuncs: 8,
		LoopTakenBias: 0.90, ForwardTakenBias: 0.30, NoisyBranchFrac: 0.07, NoisyTakenBias: 0.5,
		CallFrac: 0.18, SkewFactor: 0.7, LoadFrac: 0.26, StoreFrac: 0.13, MulFrac: 0.03, FPFrac: 0.10,
		DataFootprintKB: 512, RandomAccessFrac: 0.10, DepDensity: 0.40,
	},
	{
		Name: "perlbmk", HotCodeKB: 52, FuncBlocks: 24, AvgBlockInsts: 6, LeafFuncs: 7,
		LoopTakenBias: 0.89, ForwardTakenBias: 0.33, NoisyBranchFrac: 0.09, NoisyTakenBias: 0.55,
		CallFrac: 0.14, SkewFactor: 0.8, LoadFrac: 0.28, StoreFrac: 0.13, MulFrac: 0.02, FPFrac: 0.0,
		DataFootprintKB: 2048, RandomAccessFrac: 0.15, DepDensity: 0.40,
	},
	{
		Name: "gap", HotCodeKB: 36, FuncBlocks: 26, AvgBlockInsts: 6, LeafFuncs: 5,
		LoopTakenBias: 0.90, ForwardTakenBias: 0.32, NoisyBranchFrac: 0.08, NoisyTakenBias: 0.5,
		CallFrac: 0.11, SkewFactor: 0.9, LoadFrac: 0.27, StoreFrac: 0.11, MulFrac: 0.04, FPFrac: 0.02,
		DataFootprintKB: 4096, RandomAccessFrac: 0.20, DepDensity: 0.40,
	},
	{
		Name: "vortex", HotCodeKB: 44, FuncBlocks: 28, AvgBlockInsts: 7, LeafFuncs: 6,
		LoopTakenBias: 0.92, ForwardTakenBias: 0.25, NoisyBranchFrac: 0.05, NoisyTakenBias: 0.5,
		CallFrac: 0.13, SkewFactor: 0.85, LoadFrac: 0.29, StoreFrac: 0.14, MulFrac: 0.02, FPFrac: 0.0,
		DataFootprintKB: 4096, RandomAccessFrac: 0.15, DepDensity: 0.38,
	},
	{
		Name: "bzip2", HotCodeKB: 4, FuncBlocks: 24, AvgBlockInsts: 8, LeafFuncs: 2,
		LoopTakenBias: 0.93, ForwardTakenBias: 0.28, NoisyBranchFrac: 0.07, NoisyTakenBias: 0.5,
		CallFrac: 0.04, SkewFactor: 1.2, LoadFrac: 0.26, StoreFrac: 0.11, MulFrac: 0.02, FPFrac: 0.0,
		DataFootprintKB: 8192, RandomAccessFrac: 0.12, DepDensity: 0.38,
	},
	{
		Name: "twolf", HotCodeKB: 12, FuncBlocks: 20, AvgBlockInsts: 6, LeafFuncs: 4,
		LoopTakenBias: 0.89, ForwardTakenBias: 0.40, NoisyBranchFrac: 0.15, NoisyTakenBias: 0.55,
		CallFrac: 0.08, SkewFactor: 1.0, LoadFrac: 0.28, StoreFrac: 0.09, MulFrac: 0.03, FPFrac: 0.05,
		DataFootprintKB: 2048, RandomAccessFrac: 0.15, PointerChaseFrac: 0.20, DepDensity: 0.50,
	},
}

// Profiles returns the twelve built-in SPECint2000 stand-in profiles, in the
// order the paper lists them (Figure 6).
func Profiles() []Profile {
	out := make([]Profile, len(builtinProfiles))
	copy(out, builtinProfiles)
	return out
}

// ProfileNames returns the names of the built-in profiles in paper order.
func ProfileNames() []string {
	names := make([]string, len(builtinProfiles))
	for i, p := range builtinProfiles {
		names[i] = p.Name
	}
	return names
}

// ProfileByName returns the built-in profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range builtinProfiles {
		if p.Name == name {
			return p, nil
		}
	}
	known := ProfileNames()
	sort.Strings(known)
	return Profile{}, fmt.Errorf("workload: unknown profile %q (known: %v)", name, known)
}
