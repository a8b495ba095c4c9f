package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on shares its CPUs with other machines, and
// their load slows the simulator by up to 1.8× for minutes at a time. Every
// host time the benchmark reports is therefore scaled by the host's speed,
// measured beside it: a calibration times a fixed set of kernels (standard
// library code and a small cache-and-predictor model, over inputs built once
// from constants), and a time t measured between two calibrations c0 and c1
// is reported as t × calRef / √(c0·c1). The result reads in seconds of a
// host running at calibration speed calRef.
//
// The kernels are branchy, pointer-heavy, allocating Go code like the
// simulator, and none of them calls into the repository, so a change to the
// simulator moves the scaled times and nothing else does. On the 2-vCPU
// development host the geometric mean of the kernel times followed the
// simulator's slowdowns with a log-log slope of 0.97–1.01 (correlation 0.9);
// scaling cut the quartile spread of ~20 s runs of the same simulation from
// 19–23% to 3–6%.

// calRef is the reference calibration time, the geometric mean of the kernel
// times in seconds on the development host when it ran unloaded.
const calRef = 0.011

// calKernels are the calibration kernels. Each takes about 10–20 ms and
// returns a value derived from its work, so the compiler cannot drop it. A
// calibration runs them calRounds times: one round's geometric mean varies
// by a median 5–7% from one calibration to the next on a steady host, two
// rounds' by 3–6%.
var calKernels = []func() uint64{calFlate, calJSON, calSort, calParse, calCacheModel}

const calRounds = 2

var calInputs struct {
	once   sync.Once
	text   []byte
	tree   calNode
	floats []float64
	source []byte
}

func initCalInputs() {
	calInputs.once.Do(func() {
		r := rand.New(rand.NewSource(1))
		words := strings.Fields("fetch prestage buffer cache line branch predict queue target miss hit the of and to")
		var text bytes.Buffer
		for text.Len() < 300_000 {
			text.WriteString(words[r.Intn(len(words))])
			text.WriteByte(" \n"[r.Intn(12)/11])
		}
		calInputs.text = text.Bytes()
		calInputs.tree = calTree(r, 7)
		calInputs.floats = make([]float64, 100_000)
		for i := range calInputs.floats {
			calInputs.floats[i] = r.Float64()
		}
		calInputs.source = calSource(300)
	})
}

// calibrate times every kernel on par goroutines at once (the number of
// CPUs the measured work keeps busy) and returns the geometric mean of all
// kernel times in seconds. It takes about 150 ms. It first collects the
// garbage the measured work left, so no collection runs during it, and so
// the heap carries only one calibration's garbage (a few MB) into the next
// pass: left to the pacer, calibrations' garbage raised run-gcc's peak RSS
// from 229 MB to 272–361 MB, by an amount that varied with the run's timing.
func calibrate(par int) float64 {
	initCalInputs()
	runtime.GC()
	logs := make([]float64, par)
	sinks := make([]uint64, par)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < calRounds; r++ {
				for _, k := range calKernels {
					start := time.Now()
					sinks[g] += k()
					logs[g] += math.Log(time.Since(start).Seconds())
				}
			}
		}(g)
	}
	wg.Wait()
	var sum float64
	for g, l := range logs {
		sum += l
		calSink += sinks[g]
	}
	return math.Exp(sum / float64(par*calRounds*len(calKernels)))
}

// speedScale returns the factor that converts a host time measured between
// calibrations c0 and c1 into reference seconds.
func speedScale(c0, c1 float64) float64 {
	return calRef / math.Sqrt(c0*c1)
}

// calSink keeps the kernels' results live.
var calSink uint64

func calFlate() uint64 {
	var out bytes.Buffer
	w, _ := flate.NewWriter(&out, 5) // level 5 is valid, so no error
	w.Write(calInputs.text)          // a bytes.Buffer write does not fail
	w.Close()
	return uint64(out.Len())
}

type calNode struct {
	Name  string
	Vals  []float64
	Flags map[string]bool
	Kids  []calNode
}

func calTree(r *rand.Rand, depth int) calNode {
	n := calNode{Name: fmt.Sprint(r.Int63()), Vals: []float64{r.Float64(), r.Float64()}, Flags: map[string]bool{"hot": r.Intn(2) == 0}}
	if depth > 0 {
		for i := 0; i < 3; i++ {
			n.Kids = append(n.Kids, calTree(r, depth-1))
		}
	}
	return n
}

func calJSON() uint64 {
	data, err := json.Marshal(calInputs.tree)
	if err != nil {
		panic(err)
	}
	var back calNode
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	return uint64(len(data) + len(back.Kids))
}

func calSort() uint64 {
	xs := append([]float64(nil), calInputs.floats...)
	sort.Float64s(xs)
	return uint64(xs[len(xs)/2] * 1e9)
}

// calSource generates n types with a method each, as Go source.
func calSource(n int) []byte {
	var b strings.Builder
	b.WriteString("package p\n\nimport \"fmt\"\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
type T%[1]d struct {
	A, B int
	C    []string
	D    map[string]*T%[1]d
}

// M%[1]d walks the first x integers.
func (t *T%[1]d) M%[1]d(x int) (int, error) {
	for i := 0; i < x; i++ {
		if i%%3 == 0 {
			t.A += i * %[1]d
		} else if t.D[fmt.Sprint(i)] != nil {
			return 0, fmt.Errorf("bad %%d", i)
		}
	}
	switch x {
	case 1, 2:
		return t.B, nil
	}
	return t.A + len(t.C), nil
}
`, i)
	}
	return []byte(b.String())
}

func calParse() uint64 {
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", calInputs.source, parser.ParseComments)
	if err != nil {
		panic(err)
	}
	return uint64(len(f.Decls))
}

// calCacheModel runs a set-associative LRU cache and a 2-bit predictor
// table over a synthetic instruction stream.
func calCacheModel() uint64 {
	const sets, ways = 4096, 8
	tags := make([]uint64, sets*ways)
	pht := make([]uint8, 1<<16)
	var hist, hits, correct uint64
	x, pc := uint64(12345), uint64(0x400000)
	for i := 0; i < 500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%7 == 0 {
			pc = 0x400000 + (x>>8)%(8<<20)
		} else {
			pc += 4
		}
		line := pc >> 6
		base := int(line%sets) * ways
		w := 0
		for w < ways && tags[base+w] != line {
			w++
		}
		if w < ways {
			hits++
		} else {
			w = ways - 1
		}
		copy(tags[base+1:base+w+1], tags[base:base+w])
		tags[base] = line
		idx := (pc>>2 ^ hist) & (1<<16 - 1)
		taken := uint64(0)
		if (x>>3)&3 != 0 {
			taken = 1
		}
		if (pht[idx] >= 2) == (taken == 1) {
			correct++
		}
		if taken == 1 && pht[idx] < 3 {
			pht[idx]++
		} else if taken == 0 && pht[idx] > 0 {
			pht[idx]--
		}
		hist = (hist<<1 | taken) & 0xffff
	}
	return hits + correct
}
