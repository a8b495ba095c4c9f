package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"clgp/internal/sim"
	"clgp/internal/trace"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// cmdTrace dispatches the trace-container subcommands: record a workload's
// committed trace to disk, inspect a container, and extract a
// SimPoint-style slice.
func cmdTrace(args []string) error {
	if len(args) < 1 {
		traceUsage()
		return fmt.Errorf("trace needs a subcommand")
	}
	switch args[0] {
	case "record":
		return cmdTraceRecord(args[1:])
	case "info":
		return cmdTraceInfo(args[1:])
	case "slice":
		return cmdTraceSlice(args[1:])
	default:
		traceUsage()
		return fmt.Errorf("unknown trace subcommand %q", args[0])
	}
}

func traceUsage() {
	fmt.Fprint(os.Stderr, `clgpsim trace — on-disk trace containers

subcommands:
  record   walk a workload profile and stream its committed trace to a container
  info     print a container's header and chunk index
  slice    extract a record range into a new container (SimPoint interval extraction)
`)
}

func cmdTraceRecord(args []string) error {
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	profile := fs.String("profile", "gcc", "workload profile to record")
	insts := fs.Int("insts", 1_000_000, "trace length in instructions")
	seed := fs.Int64("seed", 1, "workload generation seed")
	out := fs.String("o", "", "output container path (default <profile>.clgt)")
	chunk := fs.Int("chunk", 0, "records per chunk (0 = default)")
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := logSetup(); err != nil {
		return err
	}
	p, err := workload.ProfileByName(*profile)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = p.Name + ".clgt"
	}
	start := time.Now()
	if _, err := sim.RecordTrace(p, *insts, *seed, path, *chunk); err != nil {
		return err
	}
	wall := time.Since(start)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d records, %d bytes (%.2f B/record) in %v (%.0f records/sec)\n",
		path, *insts, st.Size(), float64(st.Size())/float64(*insts),
		wall.Round(time.Millisecond), float64(*insts)/wall.Seconds())
	return nil
}

func cmdTraceInfo(args []string) error {
	fs := flag.NewFlagSet("trace info", flag.ExitOnError)
	chunks := fs.Bool("chunks", false, "also list the per-chunk index")
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := logSetup(); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace info needs exactly one container path")
	}
	path := fs.Arg(0)
	rd, err := tracefile.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", path)
	fmt.Printf("  workload:      %s (seed %d)\n", rd.Workload(), rd.Seed())
	fmt.Printf("  fingerprint:   %#x\n", rd.Fingerprint())
	fmt.Printf("  records:       %d in %d chunks (%d records/chunk)\n",
		rd.Len(), rd.NumChunks(), rd.ChunkRecords())
	if rd.Origin() != 0 {
		fmt.Printf("  slice origin:  record %d of the full generation\n", rd.Origin())
	}
	fmt.Printf("  file size:     %d bytes (%d compressed payload, %.2f B/record)\n",
		st.Size(), rd.CompressedBytes(), float64(st.Size())/float64(max(rd.Len(), 1)))
	if *chunks {
		for i := 0; i < rd.NumChunks(); i++ {
			ci := rd.Chunk(i)
			fmt.Printf("  chunk %4d: records [%d,%d) @ offset %d, %d bytes\n",
				i, ci.FirstRecord, ci.FirstRecord+ci.Records, ci.Offset, ci.CompressedBytes)
		}
	}
	return nil
}

func cmdTraceSlice(args []string) error {
	fs := flag.NewFlagSet("trace slice", flag.ExitOnError)
	from := fs.Int("from", 0, "first record of the slice")
	count := fs.Int("count", 0, "records in the slice (0 = through the end)")
	simpoint := fs.Bool("simpoint", false, "derive -from by basic-block distribution analysis: profile the source in -count-record intervals and slice the most representative one (the paper's SimPoint selection)")
	out := fs.String("o", "", "output container path (required)")
	chunk := fs.Int("chunk", 0, "records per chunk of the slice (0 = same as source)")
	logSetup := logFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := logSetup(); err != nil {
		return err
	}
	if fs.NArg() != 1 || *out == "" {
		return fmt.Errorf("trace slice needs -o OUT and exactly one source container")
	}
	src, err := tracefile.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer src.Close()
	lo := *from
	hi := src.Len()
	if *count > 0 {
		hi = lo + *count
	}
	if *simpoint {
		if *count <= 0 {
			return fmt.Errorf("trace slice -simpoint needs -count (the SimPoint interval length)")
		}
		if *from != 0 {
			return fmt.Errorf("trace slice -simpoint selects the start itself; drop -from")
		}
		iv, best, err := trace.RepresentativeSlice(src, *count)
		if err != nil {
			return err
		}
		lo, hi = iv.Start, iv.End
		fmt.Printf("simpoint: interval %d ([%d,%d) of %d records) is closest to the whole-trace basic-block distribution\n",
			best, lo, hi, src.Len())
	}
	if lo < 0 || hi > src.Len() || lo >= hi {
		return fmt.Errorf("slice [%d,%d) out of range 0..%d", lo, hi, src.Len())
	}
	cr := *chunk
	if cr == 0 {
		cr = src.ChunkRecords()
	}
	// The slice keeps the source's identity (workload, seed, fingerprint):
	// it is the same program's trace, just a shorter interval of it — and
	// the header records where that interval starts, so consumers that need
	// a from-the-start trace can tell the difference.
	dst, err := tracefile.Create(*out, tracefile.Options{
		Workload: src.Workload(), Fingerprint: src.Fingerprint(), Seed: src.Seed(),
		Origin: src.Origin() + lo, ChunkRecords: cr,
	})
	if err != nil {
		return err
	}
	if err := tracefile.Slice(dst, src, lo, hi); err != nil {
		dst.Close()
		os.Remove(*out)
		return err
	}
	if err := dst.Close(); err != nil {
		os.Remove(*out)
		return err
	}
	fmt.Printf("sliced records [%d,%d) of %s into %s\n", lo, hi, fs.Arg(0), *out)
	return nil
}
