// Command bench is the repository benchmark. One invocation runs one named
// workload as a closed loop inside this process: it prepares the workload's
// inputs from the seed (the timed set-up), runs timed passes until the
// measuring time is spent, checks every simulated result against committed
// digests (or, for a seed without them, against a cross-check), and prints
// every metric by name and unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
// untraced; with -trace 1 they are its per_layer list, and the run also
// writes a Chrome trace and a per-layer summary (see README.md).
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh --workload run-gcc --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh compare bench/results/seed1-a.json bench/results/seed1-b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"clgp/internal/workload"
)

const (
	// specPath and digestPath are relative to the repository root, the
	// directory the benchmark runs from.
	specPath   = "BENCHMARK.json"
	digestPath = "bench/digests.json"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is the contract's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed: every input of the run is generated from it")
	seconds := fs.Int("seconds", 25, "how long the timed passes run")
	traceFlag := fs.Int("trace", 0, "0: report end-to-end metrics untraced; 1: report per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where -trace 1 writes <workload>.trace.json and <workload>.layers.json")
	work := fs.String("work", ".bench_build", "scratch directory for stores and trace containers (cleaned up on exit)")
	out := fs.String("out", "", "append this run's full record to a results-set file (input of compare)")
	record := fs.Bool("record-digests", false, "store this seed's result digests in bench/digests.json instead of checking committed ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be positive, got %d\n", *seconds)
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	digests, err := loadDigests(digestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, scratch)
	if !*record {
		b.expect = digests.lookup(w.digestKey(), *seed)
	}
	rec, err := b.run(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	group := spec.EndToEnd
	if b.traced {
		group = spec.PerLayer
		if err := b.writeTrace(*traceDir, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	res, err := rec.contractResult(group)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *record && res.Correct {
		digests.store(w.digestKey(), *seed, b.setDigests())
		if err := digests.save(digestPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	rec.print(os.Stdout, group)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// loadSpec reads BENCHMARK.json, the single list of metric names, units,
// directions and bounds.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New(path + " lists no metrics")
	}
	return &s, nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// newWorkload returns the named workload.
func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "run-gcc":
		p, err := workload.ProfileByName("gcc")
		return &runWorkload{profile: p, inputs: make([]runSet, 3)}, err
	case "run-mcf":
		// mcf's memory-bound programs differ more from seed to seed (ticked
		// cycles: 16% quartile spread over 30 programs, gcc's 8%), so a run
		// averages over more of them.
		p, err := workload.ProfileByName("mcf")
		return &runWorkload{profile: p, streamed: true, inputs: make([]runSet, 8)}, err
	case "sweep":
		return &sweepWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (run-gcc, run-mcf, sweep)", name)
}
