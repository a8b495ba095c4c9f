package isa

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
)

// Dictionary is the program image: the "separate basic block dictionary in
// which we have the information of all static instructions" that the paper's
// simulator uses to permit execution along wrong paths. The front-end
// consults it both on the correct path and when following a mispredicted
// target, and the prefetch engines use it to determine which cache lines a
// fetch block spans.
//
// Instructions live in one flat PC-indexed table that AddBlock extends as
// blocks arrive, so a finished image is read-only: engines on several
// goroutines may share it without synchronisation.
type Dictionary struct {
	blocks     []*BasicBlock
	entryPoint Addr

	// dense holds the instruction at base + i*InstBytes in slot i (nil at
	// holes). Every fetched, predicted and prefetched PC funnels through
	// Inst, so the lookup is one bounds check and one load.
	dense []*StaticInst
	base  Addr

	// hash memoises Hash, which walks the whole image and is asked for once
	// per simulation job (the workload fingerprint keys traces and
	// snapshots). AddBlock and SetEntry invalidate it; hashMu makes the
	// first computation safe for concurrent readers of a finished image.
	hashMu    sync.Mutex
	hash      uint64
	hashValid bool
}

// MaxImageBytes caps the address span of an image, from its lowest
// instruction to the end of its highest: 16 MB of code, a table of 4M
// instruction slots (32 MB of pointers). Generated programs stay far below
// it (workload.Profile.Validate rejects a profile that could reach it).
const MaxImageBytes = 16 << 20

// NewDictionary creates an empty dictionary.
func NewDictionary() *Dictionary { return &Dictionary{} }

// AddBlock registers a basic block and all its instructions. It returns an
// error, leaving the image unchanged, if the block is empty, misnumbers or
// misplaces a control instruction, overlaps an instruction already in the
// image, or would stretch the image beyond MaxImageBytes.
func (d *Dictionary) AddBlock(bb *BasicBlock) error {
	if bb == nil || len(bb.Insts) == 0 {
		return fmt.Errorf("isa: empty basic block")
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
	if bb.Start&(InstBytes-1) != 0 {
		return fmt.Errorf("isa: block %#x is not instruction-aligned", bb.Start)
	}
	for i := range bb.Insts {
		if d.Inst(bb.Insts[i].PC) != nil {
			return fmt.Errorf("isa: block %#x overlaps instruction %#x already in the image",
				bb.Start, bb.Insts[i].PC)
		}
	}
	lo, end := bb.Start, bb.LastPC()+InstBytes
	if len(d.dense) > 0 {
		lo, end = min(lo, d.base), max(end, d.base+Addr(len(d.dense))*InstBytes)
	}
	if end <= lo || end-lo > MaxImageBytes {
		return fmt.Errorf("isa: block %#x stretches the image past %d bytes", bb.Start, MaxImageBytes)
	}
	// The image's first and last slots hold instructions, so a block that
	// does not overlap it lies wholly below, above or inside it.
	if n := int((end - lo) / InstBytes); len(d.dense) == 0 || lo < d.base {
		grown := make([]*StaticInst, n)
		copy(grown[n-len(d.dense):], d.dense)
		d.dense, d.base = grown, lo
	} else {
		d.dense = append(d.dense, make([]*StaticInst, n-len(d.dense))...)
	}
	for i := range bb.Insts {
		d.dense[(bb.Insts[i].PC-d.base)/InstBytes] = &bb.Insts[i]
	}
	d.blocks = append(d.blocks, bb)
	d.invalidateHash()
	return nil
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
	off := pc - d.base
	if pc < d.base || off&(InstBytes-1) != 0 {
		return nil
	}
	if i := off / InstBytes; i < Addr(len(d.dense)) {
		return d.dense[i]
	}
	return nil
}

// Blocks returns all basic blocks sorted by start address. The slice is
// freshly allocated; the blocks themselves are shared.
func (d *Dictionary) Blocks() []*BasicBlock {
	out := slices.Clone(d.blocks)
	slices.SortFunc(out, func(a, b *BasicBlock) int { return cmp.Compare(a.Start, b.Start) })
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
