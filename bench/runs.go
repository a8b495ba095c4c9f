package main

import (
	"fmt"
	"path/filepath"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/sim"
	"clgp/internal/stats"
	"clgp/internal/trace"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// runConfig is the single-run configuration point: CLGP with an L0 at
// 90nm, a 2KB L1 I-cache and an 8-entry prestage buffer (the configuration
// the repository's core bench gate measures).
func runConfig() core.Config {
	return core.Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: core.EngineCLGP, UseL0: true, PreBufferEntries: 8}
}

// runWorkload is one long simulation per pass: run-gcc over an in-memory
// trace, run-mcf streaming a recorded trace container through the default
// trace window.
type runWorkload struct {
	profile  workload.Profile
	streamed bool
	inputs   []runSet
}

type runSet struct {
	w    *workload.Workload // the full workload, or only the image when streamed
	path string             // the recorded container (streamed)
	rd   *tracefile.Reader
}

func (r *runWorkload) digestKey() string { return "run-" + r.profile.Name }
func (r *runWorkload) sets() int         { return len(r.inputs) }
func (r *runWorkload) cpus() int         { return 1 }

func (r *runWorkload) jobName() string {
	return sim.JobName(r.profile.Name, core.EngineCLGP, cacti.Tech90, 2<<10, true, false)
}

// source returns the committed trace of input set j: the in-memory trace, or
// a fresh window over the set's container.
func (r *runWorkload) source(j int) (core.TraceSource, error) {
	s := &r.inputs[j]
	if !r.streamed {
		return s.w.Trace, nil
	}
	return trace.NewWindowTrace(s.rd, 0)
}

func (r *runWorkload) prepare(b *bench, j int) error {
	s := &r.inputs[j]
	seed := setSeed(b.seed, j)
	var err error
	if r.streamed {
		s.path = filepath.Join(b.scratch, fmt.Sprintf("%s-%d.clgt", r.profile.Name, j))
		err = b.timeCall("tracefile.record_ms", time.Millisecond, "sim.RecordTrace", "", func() error {
			_, err := sim.RecordTrace(r.profile, b.scale.runInsts, seed, s.path, 0)
			return err
		})
		if err == nil {
			err = b.timeCall("", 0, "sim.OpenStreamImage", "", func() error {
				var err error
				s.w, s.rd, err = sim.OpenStreamImage(s.path)
				return err
			})
		}
	} else {
		err = b.timeCall("workload.generate_ms", time.Millisecond, "workload.Generate", "", func() error {
			var err error
			s.w, err = workload.Generate(r.profile, b.scale.runInsts, seed)
			return err
		})
	}
	if err != nil {
		return err
	}
	_, err = r.newEngine(b, j, runConfig(), "")
	return err
}

func (r *runWorkload) newEngine(b *bench, j int, cfg core.Config, parent string) (*core.Engine, error) {
	src, err := r.source(j)
	if err != nil {
		return nil, err
	}
	var eng *core.Engine
	err = b.timeCall("core.new_engine_us", time.Microsecond, "core.NewEngine", parent, func() error {
		var err error
		eng, err = core.NewEngine(cfg, r.inputs[j].w.Dict, src)
		return err
	})
	return eng, err
}

// pass simulates input set j to completion in steps of scale.interval
// committed instructions, timing each step. A simulation error fails the
// pass's one job; it is not an infrastructure error.
func (r *runWorkload) pass(b *bench, j int, parent string) (passOut, error) {
	run := jobResults{names: []string{r.jobName()}, results: []*stats.Results{nil}}
	out := passOut{runs: []jobResults{run}}
	eng, err := r.newEngine(b, j, runConfig(), parent)
	if err != nil {
		return out, err
	}
	end, step := uint64(b.scale.runInsts), uint64(b.scale.interval)
	for n := step; ; n += step {
		n = min(n, end)
		sp := b.begin("core.RunUntilCommitted", parent)
		start := time.Now()
		err := eng.RunUntilCommitted(n)
		d := time.Since(start)
		sp.End()
		if err != nil {
			b.checks = append(b.checks, fmt.Sprintf("input set %d: %v", j, err))
			return out, nil
		}
		out.steps = append(out.steps, float64(d)/float64(time.Millisecond))
		if n == end {
			break
		}
	}
	sp := b.begin("core.Results", parent)
	run.results[0] = eng.Results()
	sp.End()
	return out, nil
}

func (r *runWorkload) afterPass(*bench, bool) error { return nil }

// reference runs input set 0 once more in the per-cycle reference clock
// mode (Config.NoSkip), which must reproduce the timed passes' results
// exactly; every set that ran more than once was also checked pass to pass.
func (r *runWorkload) reference(b *bench) error {
	cfg := runConfig()
	cfg.NoSkip = true
	eng, err := r.newEngine(b, 0, cfg, "")
	if err != nil {
		return err
	}
	res, err := eng.Run()
	if err != nil {
		b.checks = append(b.checks, fmt.Sprintf("reference run: %v", err))
		res = nil
	}
	failed := b.failed
	ref := jobResults{names: []string{r.jobName()}, results: []*stats.Results{res}}
	b.check(0, passOut{runs: []jobResults{ref}}, false)
	verdict := "matches"
	if b.failed > failed {
		verdict = "DIFFERS from"
	}
	b.checks = append(b.checks, "input set 0 "+verdict+" a per-cycle (NoSkip) reference run", repeatNote(b))
	return nil
}

func (r *runWorkload) probe(b *bench) error {
	seed := setSeed(b.seed, 0)
	path := r.inputs[0].path
	if r.streamed {
		// The set-ups recorded through sim.RecordTrace; time the in-memory
		// generation it wraps on its own.
		if err := b.timeCall("workload.generate_ms", time.Millisecond, "workload.Generate", "", func() error {
			_, err := workload.Generate(r.profile, b.scale.runInsts, seed)
			return err
		}); err != nil {
			return err
		}
	} else {
		var err error
		if path, err = recordProbe(b, r.profile, seed); err != nil {
			return err
		}
	}
	if err := decodeProbe(b, path); err != nil {
		return err
	}
	if err := snapProbe(b, []workload.Profile{r.profile}, seed); err != nil {
		return err
	}
	return sweepProbe(b, r.profile, seed)
}

func (r *runWorkload) close() {
	for _, s := range r.inputs {
		if s.rd != nil {
			s.rd.Close()
		}
	}
}
