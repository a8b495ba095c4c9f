package main

import (
	"os"
	"path/filepath"
	"time"

	"clgp/internal/core"
	"clgp/internal/dispatch"
	"clgp/internal/sim"
	"clgp/internal/trace"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// The probes of a traced run call layers the workload's passes do not time,
// each once, so every per-layer metric is measured on every workload.

// recordProbe records a single-run-length trace container of p with
// sim.RecordTrace and returns its path.
func recordProbe(b *bench, p workload.Profile, seed int64) (string, error) {
	path := filepath.Join(b.scratch, "probe.clgt")
	err := b.timeCall("tracefile.record_ms", time.Millisecond, "sim.RecordTrace", "", func() error {
		_, err := sim.RecordTrace(p, b.scale.runInsts, seed, path, 0)
		return err
	})
	return path, err
}

// decodeProbe sizes a trace container and times one sequential
// ReadRecordsAt pass over all its records with a fresh reader.
func decodeProbe(b *bench, path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	rd, err := tracefile.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	n := rd.Len()
	b.sample("tracefile.bytes_per_record", float64(info.Size())/float64(n))
	buf := make([]trace.Record, 4096)
	start := time.Now()
	err = b.timeCall("", 0, "tracefile.ReadRecordsAt", "", func() error {
		for lo := 0; lo < n; {
			k, err := rd.ReadRecordsAt(lo, buf[:min(len(buf), n-lo)])
			if err != nil {
				return err
			}
			lo += k
		}
		return nil
	})
	if err == nil {
		b.sample("tracefile.decode_ns_per_record", float64(time.Since(start))/float64(n)*b.scaleNow())
	}
	return err
}

// snapProbe takes and restores a warm-state snapshot at the grid's warm-up
// boundary, at the single-run configuration point, once per profile and
// repetition.
func snapProbe(b *bench, profiles []workload.Profile, seed int64) error {
	const reps = 3
	for _, p := range profiles {
		w, err := workload.Generate(p, b.scale.gridInsts, seed)
		if err != nil {
			return err
		}
		eng, err := core.NewEngine(runConfig(), w.Dict, w.Trace)
		if err != nil {
			return err
		}
		if err := eng.RunUntilCommitted(uint64(b.scale.gridWarmup)); err != nil {
			return err
		}
		fp := workload.Fingerprint(p, w.Dict)
		var data []byte
		for i := 0; i < reps; i++ {
			if err := b.timeCall("snap.snapshot_ms", time.Millisecond, "core.Engine.Snapshot", "", func() error {
				data, err = eng.Snapshot(w.Name, fp)
				return err
			}); err != nil {
				return err
			}
			fresh, err := core.NewEngine(runConfig(), w.Dict, w.Trace)
			if err != nil {
				return err
			}
			if err := b.timeCall("snap.restore_ms", time.Millisecond, "core.Engine.Restore", "", func() error {
				return fresh.Restore(data, w.Name, fp)
			}); err != nil {
				return err
			}
		}
		b.sample("snap.bytes", float64(len(data)))
	}
	return nil
}

// sweepProbe runs a 16-point sweep of one profile (the grid's 8 engine
// variants at a 2KB and an 8KB L1) through the same launcher as the sweep
// workload, for the dispatch metrics of a single-run workload.
func sweepProbe(b *bench, p workload.Profile, seed int64) error {
	gc := b.scale.gridConfig(seed)
	gc.Profiles = []string{p.Name}
	gc.Sizes = []int{2 << 10, 8 << 10}
	specs, err := dispatch.GridSpecs(gc)
	if err != nil {
		return err
	}
	run, err := runSweep(b, specs, dispatch.NewDirStore(filepath.Join(b.scratch, "probe-store")), "")
	if err != nil {
		return err
	}
	for _, rec := range run.out.Records {
		b.attempted++
		if rec.Err != "" {
			b.failed++
		}
	}
	return collectSweep(b, []sweepRun{run})
}
