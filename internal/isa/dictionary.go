package isa

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
)

// Dictionary is the program image: the "separate basic block dictionary in
// which we have the information of all static instructions" that the paper's
// simulator uses to permit execution along wrong paths. The front-end
// consults it both on the correct path and when following a mispredicted
// target, and the prefetch engines use it to determine which cache lines a
// fetch block spans.
type Dictionary struct {
	blocks     map[Addr]*BasicBlock // keyed by block start address
	insts      map[Addr]*StaticInst // keyed by instruction PC
	sortedPCs  []Addr               // all instruction PCs in ascending order
	sorted     bool                 // whether sortedPCs is currently ordered
	minPC      Addr
	maxPC      Addr
	entryPoint Addr

	// dense is a flat PC-indexed view of insts covering [minPC, maxPC]
	// (index (pc-minPC)/InstBytes, nil at holes), rebuilt lazily on lookup
	// after AddBlock invalidates it. Every fetched, predicted and prefetched
	// PC funnels through Inst, and the map lookup it replaces was one of the
	// hottest entries in the cycle-loop profile. Images too sparse for the
	// flat view (span ≫ instruction count) keep using the map.
	dense      []*StaticInst
	denseBase  Addr
	denseStale bool

	// hash memoises Hash, which walks the whole image and is asked for once
	// per simulation job (the workload fingerprint keys traces and
	// snapshots). AddBlock and SetEntry invalidate it; hashMu makes the
	// first computation safe for concurrent readers of a sealed image.
	hashMu    sync.Mutex
	hash      uint64
	hashValid bool
}

// maxDenseSpan caps the dense table at 4M slots (32MB of pointers); beyond
// that a pathologically sparse image falls back to the map.
const maxDenseSpan = 1 << 22

// NewDictionary creates an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		blocks: make(map[Addr]*BasicBlock),
		insts:  make(map[Addr]*StaticInst),
	}
}

// AddBlock registers a basic block and all its instructions. It returns an
// error if the block is empty, overlaps an existing block's start, or
// redefines an existing instruction with different contents.
func (d *Dictionary) AddBlock(bb *BasicBlock) error {
	if bb == nil || len(bb.Insts) == 0 {
		return fmt.Errorf("isa: empty basic block")
	}
	if _, ok := d.blocks[bb.Start]; ok {
		return fmt.Errorf("isa: duplicate basic block at %#x", bb.Start)
	}
	for i := range bb.Insts {
		want := bb.Start + Addr(i)*InstBytes
		if bb.Insts[i].PC != want {
			return fmt.Errorf("isa: block %#x instruction %d has PC %#x, want %#x",
				bb.Start, i, bb.Insts[i].PC, want)
		}
		if i < len(bb.Insts)-1 && bb.Insts[i].IsControl() {
			return fmt.Errorf("isa: block %#x has control instruction %#x before terminator",
				bb.Start, bb.Insts[i].PC)
		}
	}
	d.blocks[bb.Start] = bb
	for i := range bb.Insts {
		pc := bb.Insts[i].PC
		if _, ok := d.insts[pc]; !ok {
			d.insts[pc] = &bb.Insts[i]
			d.sortedPCs = append(d.sortedPCs, pc)
		}
		if d.minPC == 0 || pc < d.minPC {
			d.minPC = pc
		}
		if pc > d.maxPC {
			d.maxPC = pc
		}
	}
	d.sorted = false
	d.denseStale = true
	d.invalidateHash()
	return nil
}

// refreshDense (re)builds the dense lookup table, or disables it when the PC
// span is too sparse to be worth a flat table.
func (d *Dictionary) refreshDense() {
	d.denseStale = false
	d.dense = nil
	if len(d.insts) == 0 {
		return
	}
	span := int((d.maxPC-d.minPC)/InstBytes) + 1
	if span > maxDenseSpan {
		return
	}
	d.denseBase = d.minPC
	d.dense = make([]*StaticInst, span)
	for pc, si := range d.insts {
		d.dense[(pc-d.denseBase)/InstBytes] = si
	}
}

// Seal finalises the image for concurrent read-only use: the lazy dense
// lookup table and the sorted PC index are built eagerly, so shared
// readers (parallel engines simulating against one image) never trigger
// a lazy rebuild mid-lookup. Workload generation seals every image it
// returns; only a dictionary mutated by AddBlock afterwards needs
// re-sealing before it is shared again.
func (d *Dictionary) Seal() {
	if d.denseStale {
		d.refreshDense()
	}
	d.ensureSorted()
}

func (d *Dictionary) ensureSorted() {
	if d.sorted {
		return
	}
	sort.Slice(d.sortedPCs, func(i, j int) bool { return d.sortedPCs[i] < d.sortedPCs[j] })
	d.sorted = true
}

// SetEntry records the program entry point.
func (d *Dictionary) SetEntry(pc Addr) {
	d.entryPoint = pc
	d.invalidateHash()
}

// Entry returns the program entry point.
func (d *Dictionary) Entry() Addr { return d.entryPoint }

// Inst returns the static instruction at pc, or nil if pc is not part of the
// program image (e.g. a wrong-path fetch ran off the end of the code).
func (d *Dictionary) Inst(pc Addr) *StaticInst {
	if d.denseStale {
		d.refreshDense()
	}
	if d.dense != nil {
		off := pc - d.denseBase
		if pc < d.denseBase || off&(InstBytes-1) != 0 {
			return nil
		}
		if i := off / InstBytes; i < Addr(len(d.dense)) {
			return d.dense[i]
		}
		return nil
	}
	return d.insts[pc]
}

// Block returns the basic block starting at pc, or nil.
func (d *Dictionary) Block(pc Addr) *BasicBlock { return d.blocks[pc] }

// BlockCount returns the number of basic blocks in the image.
func (d *Dictionary) BlockCount() int { return len(d.blocks) }

// InstCount returns the number of static instructions in the image.
func (d *Dictionary) InstCount() int { return len(d.insts) }

// CodeBytes returns the static code footprint in bytes.
func (d *Dictionary) CodeBytes() int { return len(d.insts) * InstBytes }

// Bounds returns the lowest and highest instruction address in the image.
func (d *Dictionary) Bounds() (lo, hi Addr) { return d.minPC, d.maxPC }

// Contains reports whether pc maps to a static instruction.
func (d *Dictionary) Contains(pc Addr) bool {
	return d.Inst(pc) != nil
}

// Blocks returns all basic blocks sorted by start address. The slice is
// freshly allocated; the blocks themselves are shared.
func (d *Dictionary) Blocks() []*BasicBlock {
	out := make([]*BasicBlock, 0, len(d.blocks))
	for _, bb := range d.blocks {
		out = append(out, bb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Lines returns the set of distinct cache-line addresses occupied by the
// code, for the given line size. Useful to compute the static footprint in
// lines when sizing workloads against cache capacities.
func (d *Dictionary) Lines(lineSize int) []Addr {
	d.ensureSorted()
	var out []Addr
	var last Addr
	first := true
	for _, pc := range d.sortedPCs {
		la := LineAddr(pc, lineSize)
		if first || la != last {
			out = append(out, la)
			last = la
			first = false
		}
	}
	return out
}

// Hash returns a deterministic fingerprint of the program image: the entry
// point plus every basic block's address and instruction fields, folded
// with FNV-1a in ascending block order. Trace containers store it so a
// streamed run can verify that the image it regenerated from (profile,
// seed) is the one the trace was captured against, instead of silently
// driving the wrong program.
//
// The first call computes it; later calls return the memoised value until
// AddBlock or SetEntry changes the image. Concurrent callers are safe.
func (d *Dictionary) Hash() uint64 {
	d.hashMu.Lock()
	defer d.hashMu.Unlock()
	if !d.hashValid {
		d.hash = d.computeHash()
		d.hashValid = true
	}
	return d.hash
}

func (d *Dictionary) invalidateHash() {
	d.hashMu.Lock()
	d.hashValid = false
	d.hashMu.Unlock()
}

// computeHash walks the image for Hash.
func (d *Dictionary) computeHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(d.entryPoint))
	for _, bb := range d.Blocks() {
		put(uint64(bb.Start))
		put(uint64(len(bb.Insts)))
		for i := range bb.Insts {
			si := &bb.Insts[i]
			put(uint64(si.Target))
			packed := uint64(si.Class) | uint64(si.Src1)<<8 | uint64(si.Src2)<<16 | uint64(si.Dst)<<24
			if si.Noisy {
				packed |= 1 << 32
			}
			put(packed)
			put(math.Float64bits(si.TakenBias))
		}
	}
	return h.Sum64()
}

// NextPC returns the address that control flows to from pc when the control
// decision is `taken`. For non-control instructions it is the fall-through.
// For returns, the provided returnTo address is used (the dictionary does not
// track the call stack). The boolean result is false when pc is unknown.
func (d *Dictionary) NextPC(pc Addr, taken bool, returnTo Addr) (Addr, bool) {
	si := d.Inst(pc)
	if si == nil {
		return 0, false
	}
	switch si.Class {
	case OpBranch:
		if taken {
			return si.Target, true
		}
		return si.FallThrough(), true
	case OpJump, OpCall:
		return si.Target, true
	case OpReturn:
		return returnTo, true
	default:
		return si.FallThrough(), true
	}
}
