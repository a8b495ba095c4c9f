package dispatch

import (
	"fmt"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/sim"
	"clgp/internal/workload"
)

// JobSpec is one simulation of the grid in serialisable form. Unlike
// sim.Job it carries no workload pointer: workers regenerate the workload
// deterministically from (Profile, Insts, Seed), which is the contract
// workload.Generate provides. That keeps shard hand-off down to a few
// strings and integers instead of a multi-megabyte trace.
type JobSpec struct {
	// Profile names the workload profile (workload.ProfileByName).
	Profile string `json:"profile"`
	// Insts is the trace length in instructions.
	Insts int `json:"insts"`
	// Seed is the workload generation seed.
	Seed int64 `json:"seed"`
	// Rep is the replicate index of the job within a multi-seed grid: the
	// grid point is the same, the Seed differs per replicate. Replicate 0
	// (and every single-seed job — omitempty keeps its serialisation, and
	// therefore the grid hash of old manifests, unchanged) carries the bare
	// job name; higher replicates suffix it, so names stay unique.
	Rep int `json:"rep,omitempty"`

	// Tech is the technology node name (cacti.ParseTech form, e.g. "0.09um").
	Tech string `json:"tech"`
	// Engine is the instruction-delivery engine (core.ParseEngineKind form).
	Engine string `json:"engine"`
	// L1Size is the L1 I-cache size in bytes, one of cacti.L1Sizes.
	L1Size int `json:"l1_size"`
	// UseL0 adds the one-cycle L0 cache.
	UseL0 bool `json:"use_l0,omitempty"`
	// Ideal makes every instruction fetch a one-cycle hit (Figure 1 baseline).
	Ideal bool `json:"ideal,omitempty"`
	// Warmup is the warm-state snapshot boundary in committed instructions:
	// jobs sharing a workload fingerprint and warm-configuration key restore
	// from one checkpoint published through the sweep store instead of each
	// re-simulating the warm-up prefix. 0 disables snapshotting (omitempty
	// keeps pre-snapshot manifests' grid hashes unchanged).
	Warmup int `json:"warmup,omitempty"`
}

// Validate checks that the spec can be turned into a runnable configuration.
func (s JobSpec) Validate() error {
	if _, err := workload.ProfileByName(s.Profile); err != nil {
		return err
	}
	if s.Insts <= 0 {
		return fmt.Errorf("dispatch: job %s: insts must be positive, got %d", s.Profile, s.Insts)
	}
	tech, err := cacti.ParseTech(s.Tech)
	if err != nil {
		return err
	}
	if _, err := core.ParseEngineKind(s.Engine); err != nil {
		return err
	}
	if _, err := cacti.CacheLatency(s.L1Size, tech); err != nil {
		return fmt.Errorf("dispatch: job %s: %w", s.Profile, err)
	}
	return nil
}

// Name returns the job's unique label within its grid (sim.JobName form,
// with the replicate suffix for replicates beyond the first).
func (s JobSpec) Name() string {
	tech, err := cacti.ParseTech(s.Tech)
	eng, err2 := core.ParseEngineKind(s.Engine)
	if err != nil || err2 != nil {
		// Unparseable specs still need a stable label for error reports.
		return sim.ReplicateName(fmt.Sprintf("%s/%s/%s/L1=%dB", s.Profile, s.Engine, s.Tech, s.L1Size), s.Rep)
	}
	return sim.ReplicateName(sim.JobName(s.Profile, eng, tech, s.L1Size, s.UseL0, s.Ideal), s.Rep)
}

// PointName returns the job's grid-point label without the replicate
// suffix — the key replicate aggregation groups on.
func (s JobSpec) PointName() string {
	p := s
	p.Rep = 0
	return p.Name()
}

// WorkloadKey identifies the workload the job runs against. Jobs with equal
// keys can share one generated workload, so the shard planner keeps them
// together.
func (s JobSpec) WorkloadKey() string {
	return fmt.Sprintf("%s/%d/%d", s.Profile, s.Insts, s.Seed)
}

// Config builds the processor configuration for the spec.
func (s JobSpec) Config() (core.Config, error) {
	tech, err := cacti.ParseTech(s.Tech)
	if err != nil {
		return core.Config{}, err
	}
	eng, err := core.ParseEngineKind(s.Engine)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Name:        s.Name(),
		Tech:        tech,
		L1ISize:     s.L1Size,
		Engine:      eng,
		UseL0:       s.UseL0 && eng != core.EngineNone,
		IdealICache: s.Ideal,
	}, nil
}

// SimJob binds the spec to an already generated workload.
func (s JobSpec) SimJob(w *workload.Workload) (sim.Job, error) {
	cfg, err := s.Config()
	if err != nil {
		return sim.Job{}, err
	}
	return sim.Job{Config: cfg, Workload: w, Warmup: s.Warmup}, nil
}

// GridConfig enumerates a paper evaluation grid.
type GridConfig struct {
	// Profiles are the workload profile names; empty selects all built-ins.
	Profiles []string
	// Insts is the trace length per workload.
	Insts int
	// Seed is the workload generation seed (of the first replicate).
	Seed int64
	// Seeds is the number of replicate seeds per grid point: replicate r
	// runs seed Seed+r. 0 or 1 means a single-seed grid, enumerated exactly
	// as before the seed axis existed (same specs, same grid hash).
	Seeds int
	// Techs are the technology nodes to sweep.
	Techs []cacti.Tech
	// Engines are the instruction-delivery engines to sweep.
	Engines []core.EngineKind
	// Sizes are the L1 I-cache sizes in bytes; empty selects the paper's
	// 256B..64KB sweep.
	Sizes []int
	// L0Variants additionally runs every prefetching engine with the L0
	// enabled (EngineNone never takes an L0).
	L0Variants bool
	// IncludeIdeal adds the ideal-I-cache baseline (Figure 1) per size.
	IncludeIdeal bool
	// Warmup sets every spec's warm-state snapshot boundary in committed
	// instructions (0 disables snapshotting). Grid points that share a
	// workload and warm-configuration key then pay warm-up once per sweep.
	Warmup int
}

// GridSpecs enumerates the grid deterministically, workload-major (all jobs
// of one profile are contiguous), so shard planning can keep jobs that share
// a workload on the same shard.
func GridSpecs(gc GridConfig) ([]JobSpec, error) {
	if gc.Insts <= 0 {
		return nil, fmt.Errorf("dispatch: grid needs a positive instruction count, got %d", gc.Insts)
	}
	profiles := gc.Profiles
	if len(profiles) == 0 {
		profiles = workload.ProfileNames()
	}
	reps := gc.Seeds
	if reps <= 0 {
		reps = 1
	}
	techs := gc.Techs
	if len(techs) == 0 {
		techs = []cacti.Tech{cacti.Tech90}
	}
	engines := gc.Engines
	if len(engines) == 0 {
		engines = []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP}
	}
	sizes := gc.Sizes
	if len(sizes) == 0 {
		sizes = cacti.L1Sizes()
	}

	var specs []JobSpec
	add := func(s JobSpec) error {
		if err := s.Validate(); err != nil {
			return err
		}
		specs = append(specs, s)
		return nil
	}
	// Replicates enumerate inside the profile loop (profiles outer, seeds
	// next) so all jobs of one (profile, seed) workload stay contiguous and
	// the shard planner keeps each replicate's workload on one shard.
	for _, prof := range profiles {
		for rep := 0; rep < reps; rep++ {
			seed := gc.Seed + int64(rep)
			for _, tech := range techs {
				for _, eng := range engines {
					l0s := []bool{false}
					if gc.L0Variants && eng != core.EngineNone {
						l0s = []bool{false, true}
					}
					for _, l0 := range l0s {
						for _, size := range sizes {
							err := add(JobSpec{
								Profile: prof, Insts: gc.Insts, Seed: seed, Rep: rep,
								Tech: tech.String(), Engine: eng.String(),
								L1Size: size, UseL0: l0,
								Warmup: gc.Warmup,
							})
							if err != nil {
								return nil, err
							}
						}
					}
				}
				if gc.IncludeIdeal {
					for _, size := range sizes {
						err := add(JobSpec{
							Profile: prof, Insts: gc.Insts, Seed: seed, Rep: rep,
							Tech: tech.String(), Engine: core.EngineNone.String(),
							L1Size: size, Ideal: true,
							Warmup: gc.Warmup,
						})
						if err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	if err := checkUniqueNames(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// checkUniqueNames rejects grids with duplicate job labels, which would make
// merged results ambiguous.
func checkUniqueNames(specs []JobSpec) error {
	names := make(map[string]struct{}, len(specs))
	for _, s := range specs {
		n := s.Name()
		if _, dup := names[n]; dup {
			return fmt.Errorf("dispatch: duplicate job %q in grid", n)
		}
		names[n] = struct{}{}
	}
	return nil
}
