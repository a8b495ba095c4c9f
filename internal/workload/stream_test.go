package workload

import (
	"runtime"
	"sync"
	"testing"

	"clgp/internal/isa"
	"clgp/internal/trace"
)

type sliceSink struct{ recs []trace.Record }

func (s *sliceSink) Write(r trace.Record) error {
	s.recs = append(s.recs, r)
	return nil
}

// TestGenerateToMatchesGenerate: the streaming walk must emit bit-identical
// records to the materialising one, and rebuild the identical program image
// — that equivalence is what lets a recorded container stand in for a
// regenerated workload.
func TestGenerateToMatchesGenerate(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "twolf"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		const insts = 10_000
		const seed = 42
		w, err := Generate(p, insts, seed)
		if err != nil {
			t.Fatalf("%s: generate: %v", name, err)
		}
		sink := &sliceSink{}
		dict, err := GenerateTo(p, insts, seed, sink)
		if err != nil {
			t.Fatalf("%s: generate to: %v", name, err)
		}
		if len(sink.recs) != w.Trace.Len() {
			t.Fatalf("%s: streamed %d records, materialised %d", name, len(sink.recs), w.Trace.Len())
		}
		for i, r := range sink.recs {
			if r != w.Trace.At(i) {
				t.Fatalf("%s: record %d = %+v streamed, %+v materialised", name, i, r, w.Trace.At(i))
			}
		}
		if dict.Hash() != w.Dict.Hash() {
			t.Errorf("%s: streamed image hash %#x, materialised %#x", name, dict.Hash(), w.Dict.Hash())
		}
		imageOnly, err := BuildImage(p, seed)
		if err != nil {
			t.Fatalf("%s: build image: %v", name, err)
		}
		if imageOnly.Hash() != w.Dict.Hash() {
			t.Errorf("%s: BuildImage hash %#x, Generate %#x", name, imageOnly.Hash(), w.Dict.Hash())
		}
	}
}

// TestDictionaryHashDiscriminates: the image fingerprint must react to the
// generation seed (different program) and stay stable for the same input.
func TestDictionaryHashDiscriminates(t *testing.T) {
	p, err := ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildImage(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildImage(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildImage(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Errorf("same (profile, seed) hashed differently: %#x vs %#x", a.Hash(), b.Hash())
	}
	if a.Hash() == c.Hash() {
		t.Errorf("different seeds collided on %#x", a.Hash())
	}
}

// TestFingerprintTracksWalkParameters: walk-only profile parameters never
// reach the program image, so the image hash alone cannot detect a retuned
// profile — the fingerprint must. This is exactly the stale-container
// hazard: a trace recorded before a RandomAccessFrac retune would pass an
// image-hash check while holding a different address stream.
func TestFingerprintTracksWalkParameters(t *testing.T) {
	p, err := ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	dict, err := BuildImage(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	retuned := p
	retuned.RandomAccessFrac += 0.1
	retunedDict, err := BuildImage(retuned, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dict.Hash() != retunedDict.Hash() {
		t.Fatalf("walk-only retune changed the image hash — update this test's premise")
	}
	if Fingerprint(p, dict) == Fingerprint(retuned, retunedDict) {
		t.Error("fingerprint did not react to a walk-parameter retune")
	}
	if Fingerprint(p, dict) != Fingerprint(p, dict) {
		t.Error("fingerprint is not deterministic")
	}
}

// TestFingerprintRepeatIsCheap: a sweep asks for the fingerprint of one
// sealed image once per job, so after the first call the image hash must
// come from its memo: a repeated Fingerprint allocates under 1 KB (a full
// image walk allocates about 20 KB).
func TestFingerprintRepeatIsCheap(t *testing.T) {
	p, err := ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(p, 1_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Fingerprint(p, w.Dict)
	// fmt's pooled print buffers are dropped by a collection that lands
	// between calls, so the budget holds the cheapest of a few calls.
	least := ^uint64(0)
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := Fingerprint(p, w.Dict)
		runtime.ReadMemStats(&after)
		if got != want {
			t.Fatalf("repeated fingerprint %#x, first %#x", got, want)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1024 {
		t.Errorf("repeated Fingerprint allocated %d bytes, want < 1024", least)
	}
}

// TestPointerChaseChain: with every access on the chase, consecutive memory
// addresses must follow the serial chain exactly — each effective address a
// deterministic function of the previous one, never an independent draw.
func TestPointerChaseChain(t *testing.T) {
	p, err := ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p.PointerChaseFrac = 1.0
	p.RandomAccessFrac = 0
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w, err := Generate(p, 20_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	nodes := uint64(p.DataFootprintKB) * 1024 / 8
	var mem []isa.Addr
	for i := 0; i < w.Trace.Len(); i++ {
		if r := w.Trace.At(i); r.EffAddr != 0 {
			mem = append(mem, r.EffAddr)
		}
	}
	if len(mem) < 100 {
		t.Fatalf("only %d memory records", len(mem))
	}
	for i := 1; i < len(mem); i++ {
		idx := uint64(mem[i-1]-DataBase) / 8
		wantIdx := (idx*chaseMul + chaseInc) % nodes
		if want := DataBase + isa.Addr(wantIdx)*8; mem[i] != want {
			t.Fatalf("memory access %d = %#x, chain predicts %#x", i, mem[i], want)
		}
	}
}

// TestPointerChaseChangesTheStream: swapping i.i.d. randomness for the
// chase must actually change the generated addresses.
func TestPointerChaseChangesTheStream(t *testing.T) {
	p, err := ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	iid := p
	iid.RandomAccessFrac = 0.6
	chase := p
	chase.RandomAccessFrac = 0
	chase.PointerChaseFrac = 0.6
	a, err := Generate(iid, 5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(chase, 5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := 0; i < a.Trace.Len(); i++ {
		if a.Trace.At(i).EffAddr != b.Trace.At(i).EffAddr {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("chase and i.i.d. profiles generated identical address streams")
	}
}

func TestValidateRejectsChaseOverflow(t *testing.T) {
	p, err := ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p.RandomAccessFrac = 0.5
	p.PointerChaseFrac = 0.6
	if err := p.Validate(); err == nil {
		t.Error("random+chase fraction above 1 accepted")
	}
	p.PointerChaseFrac = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative chase fraction accepted")
	}
}

// TestBuildImageSafeForConcurrentLookup: the image BuildImage returns is
// shared by parallel engines streaming one container, so concurrent Inst
// lookups must be plain reads. Run it under -race.
func TestBuildImageSafeForConcurrentLookup(t *testing.T) {
	p, err := ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildImage(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	blocks := d.Blocks()
	lo, hi := blocks[0].Start, blocks[len(blocks)-1].LastPC()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pc := lo; pc <= hi; pc += isa.InstBytes {
				d.Inst(pc)
			}
		}()
	}
	wg.Wait()
	if d.Inst(d.Entry()) == nil {
		t.Fatal("entry point not in the image")
	}
}
