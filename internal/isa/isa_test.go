package isa

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestOpClassString(t *testing.T) {
	cases := map[OpClass]string{
		OpALU:    "alu",
		OpMul:    "mul",
		OpFP:     "fp",
		OpLoad:   "load",
		OpStore:  "store",
		OpBranch: "branch",
		OpJump:   "jump",
		OpCall:   "call",
		OpReturn: "return",
		OpNop:    "nop",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("OpClass(%d).String() = %q, want %q", c, got, want)
		}
	}
	if got := OpClass(200).String(); got != "opclass(200)" {
		t.Errorf("unknown class string = %q", got)
	}
}

func TestOpClassPredicates(t *testing.T) {
	control := map[OpClass]bool{
		OpBranch: true, OpJump: true, OpCall: true, OpReturn: true,
		OpALU: false, OpLoad: false, OpStore: false, OpNop: false, OpMul: false, OpFP: false,
	}
	for c, want := range control {
		if got := c.IsControl(); got != want {
			t.Errorf("%v.IsControl() = %v, want %v", c, got, want)
		}
	}
	if !OpBranch.IsCondBranch() || OpJump.IsCondBranch() || OpCall.IsCondBranch() {
		t.Errorf("IsCondBranch misclassifies")
	}
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpALU.IsMem() || OpBranch.IsMem() {
		t.Errorf("IsMem misclassifies")
	}
}

func TestOpClassExecLatency(t *testing.T) {
	if OpALU.ExecLatency() != 1 {
		t.Errorf("ALU latency = %d, want 1", OpALU.ExecLatency())
	}
	if OpMul.ExecLatency() != 3 {
		t.Errorf("Mul latency = %d, want 3", OpMul.ExecLatency())
	}
	if OpFP.ExecLatency() != 4 {
		t.Errorf("FP latency = %d, want 4", OpFP.ExecLatency())
	}
	if OpLoad.ExecLatency() != 1 {
		t.Errorf("Load base latency = %d, want 1", OpLoad.ExecLatency())
	}
}

func TestStaticInstFallThrough(t *testing.T) {
	si := &StaticInst{PC: 0x1000, Class: OpALU}
	if si.FallThrough() != 0x1004 {
		t.Errorf("FallThrough = %#x, want 0x1004", si.FallThrough())
	}
	if si.IsControl() {
		t.Errorf("ALU should not be control")
	}
}

func TestLineAddrAndOffset(t *testing.T) {
	cases := []struct {
		addr     Addr
		lineSize int
		wantLine Addr
		wantOff  int
	}{
		{0x0, 64, 0x0, 0},
		{0x3f, 64, 0x0, 63},
		{0x40, 64, 0x40, 0},
		{0x1044, 64, 0x1040, 4},
		{0x1044, 128, 0x1000, 0x44},
		{0xffff, 64, 0xffc0, 0x3f},
	}
	for _, c := range cases {
		if got := LineAddr(c.addr, c.lineSize); got != c.wantLine {
			t.Errorf("LineAddr(%#x, %d) = %#x, want %#x", c.addr, c.lineSize, got, c.wantLine)
		}
		if got := LineOffset(c.addr, c.lineSize); got != c.wantOff {
			t.Errorf("LineOffset(%#x, %d) = %d, want %d", c.addr, c.lineSize, got, c.wantOff)
		}
	}
}

func TestLineAddrProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		const ls = 64
		la := LineAddr(a, ls)
		off := LineOffset(a, ls)
		// Reconstruction and alignment invariants.
		return la+Addr(off) == a && la%ls == 0 && off >= 0 && off < ls
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLinesSpanned(t *testing.T) {
	cases := []struct {
		start Addr
		n     int
		want  int
	}{
		{0x0, 0, 0},
		{0x0, 1, 1},
		{0x0, 16, 1}, // exactly one 64B line of 4-byte instructions
		{0x0, 17, 2},
		{0x3c, 2, 2}, // crosses a line boundary
		{0x40, 16, 1},
		{0x44, 16, 2},
		{0x0, 64, 4},
	}
	for _, c := range cases {
		if got := LinesSpanned(c.start, c.n, 64); got != c.want {
			t.Errorf("LinesSpanned(%#x, %d) = %d, want %d", c.start, c.n, got, c.want)
		}
	}
}

func TestLinesSpannedProperty(t *testing.T) {
	// The number of lines spanned is always between ceil(n/instsPerLine) and
	// ceil(n/instsPerLine)+1 for n > 0.
	f := func(rawStart uint32, rawN uint16) bool {
		start := Addr(rawStart) * InstBytes
		n := int(rawN%256) + 1
		const lineSize = 64
		instsPerLine := lineSize / InstBytes
		got := LinesSpanned(start, n, lineSize)
		minLines := (n + instsPerLine - 1) / instsPerLine
		return got >= minLines && got <= minLines+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func makeBlock(start Addr, n int, term OpClass, target Addr) *BasicBlock {
	bb := &BasicBlock{Start: start}
	for i := 0; i < n; i++ {
		cls := OpALU
		var tgt Addr
		if i == n-1 {
			cls = term
			tgt = target
		}
		bb.Insts = append(bb.Insts, StaticInst{
			PC:     start + Addr(i)*InstBytes,
			Class:  cls,
			Target: tgt,
			Src1:   RegZero, Src2: RegZero, Dst: RegZero,
		})
	}
	return bb
}

func TestBasicBlockAccessors(t *testing.T) {
	bb := makeBlock(0x1000, 5, OpBranch, 0x2000)
	if bb.Len() != 5 {
		t.Fatalf("Len = %d, want 5", bb.Len())
	}
	if bb.End() != 0x1000+5*InstBytes {
		t.Errorf("End = %#x", bb.End())
	}
	if bb.LastPC() != 0x1010 {
		t.Errorf("LastPC = %#x, want 0x1010", bb.LastPC())
	}
	term := bb.Terminator()
	if term == nil || term.Class != OpBranch || term.Target != 0x2000 {
		t.Errorf("Terminator = %+v", term)
	}
	empty := &BasicBlock{Start: 0x50}
	if empty.Terminator() != nil {
		t.Errorf("empty block terminator should be nil")
	}
	if empty.LastPC() != 0x50 {
		t.Errorf("empty block LastPC = %#x", empty.LastPC())
	}
}

func TestDictionaryAddAndLookup(t *testing.T) {
	d := NewDictionary()
	b1 := makeBlock(0x1000, 4, OpBranch, 0x2000)
	b2 := makeBlock(0x2000, 6, OpJump, 0x1000)
	// The higher block first, so the table also grows downwards.
	if err := d.AddBlock(b2); err != nil {
		t.Fatalf("AddBlock b2: %v", err)
	}
	if err := d.AddBlock(b1); err != nil {
		t.Fatalf("AddBlock b1: %v", err)
	}
	d.SetEntry(0x1000)
	for _, bb := range []*BasicBlock{b1, b2} {
		for i := range bb.Insts {
			if got := d.Inst(bb.Insts[i].PC); got != &bb.Insts[i] {
				t.Errorf("Inst(%#x) = %p, want the block's instruction %p", bb.Insts[i].PC, got, &bb.Insts[i])
			}
		}
	}

	if d.Entry() != 0x1000 {
		t.Errorf("Entry = %#x", d.Entry())
	}
	if si := d.Inst(0x200c); si == nil || si.Class != OpALU {
		t.Errorf("Inst(0x200c) = %+v", si)
	}
	if d.Inst(0x5000) != nil {
		t.Errorf("Inst on unknown PC should be nil")
	}
	// Holes inside the image and the slots past either end are empty.
	for _, pc := range []Addr{0x0ffc, 0x1010, 0x1ffc, 0x2018, 0x1002} {
		if d.Inst(pc) != nil {
			t.Errorf("Inst(%#x) should be nil", pc)
		}
	}
	blocks := d.Blocks()
	if len(blocks) != 2 || blocks[0] != b1 || blocks[1] != b2 {
		t.Errorf("Blocks() = %+v", blocks)
	}
}

func TestDictionaryAddBlockErrors(t *testing.T) {
	d := NewDictionary()
	if err := d.AddBlock(nil); err == nil {
		t.Errorf("nil block should error")
	}
	if err := d.AddBlock(&BasicBlock{Start: 0x10}); err == nil {
		t.Errorf("empty block should error")
	}
	good := makeBlock(0x1000, 3, OpJump, 0x2000)
	if err := d.AddBlock(good); err != nil {
		t.Fatalf("AddBlock: %v", err)
	}
	if err := d.AddBlock(makeBlock(0x1000, 2, OpJump, 0x3000)); err == nil {
		t.Errorf("duplicate block start should error")
	}
	if err := d.AddBlock(makeBlock(0x1000+2*InstBytes, 2, OpJump, 0x3000)); err == nil {
		t.Errorf("block redefining the terminator of another should error")
	}
	if err := d.AddBlock(makeBlock(0x1000-InstBytes, 2, OpJump, 0x3000)); err == nil {
		t.Errorf("block running into another should error")
	}
	if err := d.AddBlock(makeBlock(0x2002, 2, OpJump, 0x3000)); err == nil {
		t.Errorf("misaligned block should error")
	}
	if err := d.AddBlock(makeBlock(0x1000+MaxImageBytes, 1, OpJump, 0)); err == nil {
		t.Errorf("block stretching the image past MaxImageBytes should error")
	}
	high := NewDictionary()
	if err := high.AddBlock(makeBlock(2*MaxImageBytes, 1, OpJump, 0)); err != nil {
		t.Fatalf("AddBlock: %v", err)
	}
	if err := high.AddBlock(makeBlock(MaxImageBytes, 1, OpJump, 0)); err == nil {
		t.Errorf("block stretching the image downwards past MaxImageBytes should error")
	}
	// Every rejection left the image as it was.
	if len(d.Blocks()) != 1 || d.Inst(0x1008) != &good.Insts[2] || d.Inst(0x1000-InstBytes) != nil ||
		d.Inst(0x100c) != nil {
		t.Errorf("a rejected block changed the image")
	}
	// Block with a misnumbered PC.
	bad := makeBlock(0x4000, 3, OpJump, 0)
	bad.Insts[1].PC = 0x9999
	if err := d.AddBlock(bad); err == nil {
		t.Errorf("misnumbered PC should error")
	}
	// Block with a control instruction before the terminator.
	bad2 := makeBlock(0x5000, 3, OpJump, 0)
	bad2.Insts[0].Class = OpBranch
	if err := d.AddBlock(bad2); err == nil {
		t.Errorf("early control instruction should error")
	}
}

// hashTestImage returns a two-block image.
func hashTestImage(t *testing.T) *Dictionary {
	t.Helper()
	d := NewDictionary()
	for _, bb := range []*BasicBlock{
		makeBlock(0x1000, 4, OpBranch, 0x2000),
		makeBlock(0x2000, 3, OpJump, 0x1000),
	} {
		if err := d.AddBlock(bb); err != nil {
			t.Fatalf("AddBlock: %v", err)
		}
	}
	d.SetEntry(0x1000)
	return d
}

// TestDictionaryHashMemo: the memoised Hash must equal a fresh walk of the
// image, and every mutation after the first Hash must drop the memo.
func TestDictionaryHashMemo(t *testing.T) {
	d := hashTestImage(t)
	first := d.Hash()
	if first != d.computeHash() {
		t.Fatalf("memoised hash %#x differs from a fresh recomputation %#x", first, d.computeHash())
	}
	if d.Hash() != first {
		t.Fatal("repeated Hash changed without a mutation")
	}

	if err := d.AddBlock(makeBlock(0x3000, 2, OpReturn, 0)); err != nil {
		t.Fatalf("AddBlock: %v", err)
	}
	afterAdd := d.Hash()
	if afterAdd == first {
		t.Error("Hash did not change after AddBlock")
	}
	if afterAdd != d.computeHash() {
		t.Errorf("hash after AddBlock %#x differs from a fresh recomputation %#x", afterAdd, d.computeHash())
	}

	d.SetEntry(0x2000)
	afterEntry := d.Hash()
	if afterEntry == afterAdd {
		t.Error("Hash did not change after SetEntry")
	}
	if afterEntry != d.computeHash() {
		t.Errorf("hash after SetEntry %#x differs from a fresh recomputation %#x", afterEntry, d.computeHash())
	}
}

// TestDictionaryHashConcurrent has several goroutines ask a finished image
// for its first Hash at once, as parallel sweep workers do; run it under
// -race.
func TestDictionaryHashConcurrent(t *testing.T) {
	d := hashTestImage(t)
	want := d.computeHash()
	const callers = 8
	got := make([]uint64, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = d.Hash()
		}(i)
	}
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Errorf("caller %d: hash %#x, want %#x", i, h, want)
		}
	}
}
