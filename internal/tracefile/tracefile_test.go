package tracefile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"clgp/internal/trace"
	"clgp/internal/workload"
)

// testRecords walks the gcc profile to get realistic committed-path records
// (sequential runs, taken branches, memory deltas of every kind).
func testRecords(t testing.TB, numInsts int, seed int64) []trace.Record {
	t.Helper()
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	w, err := workload.Generate(p, numInsts, seed)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	recs := make([]trace.Record, w.Trace.Len())
	for i := range recs {
		recs[i] = w.Trace.At(i)
	}
	return recs
}

// writeContainer writes recs into a fresh container file and returns its path.
func writeContainer(t testing.TB, recs []trace.Record, opts Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.clgt")
	w, err := Create(path, opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return path
}

// readRecords decodes every record of the container through ReadRecordsAt.
func readRecords(rd *Reader) ([]trace.Record, error) {
	recs := make([]trace.Record, rd.Len())
	for i := 0; i < len(recs); {
		n, err := rd.ReadRecordsAt(i, recs[i:])
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("no records at %d", i)
		}
		i += n
	}
	return recs, nil
}

func TestRoundTrip(t *testing.T) {
	recs := testRecords(t, 50_000, 3)
	// A small chunk size forces many chunks plus a partial final chunk, so
	// the per-chunk delta reset and the index see real coverage.
	path := writeContainer(t, recs, Options{
		Workload: "gcc", Fingerprint: 0xdeadbeef, Seed: 3, ChunkRecords: 4096,
	})
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	if rd.Workload() != "gcc" || rd.Fingerprint() != 0xdeadbeef || rd.Seed() != 3 {
		t.Errorf("header mismatch: workload %q fingerprint %#x seed %d", rd.Workload(), rd.Fingerprint(), rd.Seed())
	}
	if rd.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", rd.Len(), len(recs))
	}
	if want := (len(recs) + 4095) / 4096; rd.NumChunks() != want {
		t.Errorf("NumChunks = %d, want %d", rd.NumChunks(), want)
	}
	got, err := readRecords(rd)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := range recs {
		if r := got[i]; r != recs[i] {
			t.Fatalf("record %d decoded as %+v, want %+v", i, r, recs[i])
		}
	}
	// The delta encoding should stay well under two bytes per record
	// before compression even counts.
	if bpr := float64(fileSize(t, path)) / float64(len(recs)); bpr > 2 {
		t.Errorf("container costs %.2f bytes/record, want < 2", bpr)
	}
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestEmptyContainer(t *testing.T) {
	path := writeContainer(t, nil, Options{Workload: "empty"})
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	if rd.Len() != 0 || rd.NumChunks() != 0 {
		t.Errorf("empty container reports %d records in %d chunks", rd.Len(), rd.NumChunks())
	}
	if got, err := readRecords(rd); err != nil || len(got) != 0 {
		t.Errorf("read %d records, %v", len(got), err)
	}
}

func TestReadRecordsAtAcrossChunks(t *testing.T) {
	recs := testRecords(t, 20_000, 5)
	path := writeContainer(t, recs, Options{Workload: "gcc", ChunkRecords: 1 << 12})
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	// Reads that start mid-chunk and span a boundary must return the
	// in-chunk tail first, then continue from the next chunk.
	for _, lo := range []int{0, 1, 4095, 4096, 4097, 12345, len(recs) - 1} {
		buf := make([]trace.Record, 8192)
		got := 0
		for i := lo; i < len(recs) && got < len(buf); {
			n, err := rd.ReadRecordsAt(i, buf[got:])
			if err != nil {
				t.Fatalf("ReadRecordsAt(%d): %v", i, err)
			}
			if n == 0 {
				t.Fatalf("ReadRecordsAt(%d) returned 0 records", i)
			}
			got += n
			i += n
		}
		for k := 0; k < got; k++ {
			if buf[k] != recs[lo+k] {
				t.Fatalf("read from %d: record %d = %+v, want %+v", lo, lo+k, buf[k], recs[lo+k])
			}
		}
	}
	if _, err := rd.ReadRecordsAt(len(recs), make([]trace.Record, 1)); err == nil {
		t.Errorf("read past the end succeeded")
	}
	if _, err := rd.ReadRecordsAt(-1, make([]trace.Record, 1)); err == nil {
		t.Errorf("negative read succeeded")
	}
}

func TestSlice(t *testing.T) {
	recs := testRecords(t, 30_000, 7)
	srcPath := writeContainer(t, recs, Options{Workload: "gcc", Seed: 7, ChunkRecords: 4096})
	src, err := Open(srcPath)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer src.Close()

	lo, hi := 5000, 21_000
	dstPath := filepath.Join(t.TempDir(), "slice.clgt")
	dst, err := Create(dstPath, Options{
		Workload: "gcc", Seed: 7, Origin: src.Origin() + lo, ChunkRecords: 4096,
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := Slice(dst, src, lo, hi); err != nil {
		t.Fatalf("slice: %v", err)
	}
	if err := dst.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rd, err := Open(dstPath)
	if err != nil {
		t.Fatalf("open slice: %v", err)
	}
	defer rd.Close()
	got, err := readRecords(rd)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != hi-lo {
		t.Fatalf("slice holds %d records, want %d", len(got), hi-lo)
	}
	if rd.Origin() != lo {
		t.Errorf("slice origin = %d, want %d", rd.Origin(), lo)
	}
	for i := range got {
		if r := got[i]; r != recs[lo+i] {
			t.Fatalf("slice record %d = %+v, want %+v", i, r, recs[lo+i])
		}
	}

	if err := Slice(dst, src, 0, src.Len()+1); err == nil {
		t.Errorf("out-of-range slice succeeded")
	}
}

// TestCorruptContainers covers the structured failure modes: every mangled
// file must fail cleanly (ErrCorrupt/ErrBadMagic/ErrBadVersion or a read
// error), never decode garbage records silently.
func TestCorruptContainers(t *testing.T) {
	recs := testRecords(t, 10_000, 9)
	path := writeContainer(t, recs, Options{Workload: "gcc", ChunkRecords: 2048})
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	openBytes := func(data []byte) (*Reader, error) {
		return NewReader(bytes.NewReader(data), int64(len(data)))
	}

	t.Run("truncated-trailer", func(t *testing.T) {
		if _, err := openBytes(valid[:len(valid)-5]); err == nil {
			t.Error("open succeeded on a truncated trailer")
		}
	})
	t.Run("truncated-chunks", func(t *testing.T) {
		// Chop from the middle: the trailer then points past the end.
		if _, err := openBytes(valid[:len(valid)/2]); err == nil {
			t.Error("open succeeded on a half file")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		mangled := append([]byte(nil), valid...)
		mangled[0] ^= 0xff
		if _, err := openBytes(mangled); !errors.Is(err, ErrBadMagic) {
			t.Errorf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		mangled := append([]byte(nil), valid...)
		mangled[4] = 0xff
		if _, err := openBytes(mangled); !errors.Is(err, ErrBadVersion) {
			t.Errorf("got %v, want ErrBadVersion", err)
		}
	})
	t.Run("flipped-chunk-byte", func(t *testing.T) {
		// Structure (header, index, trailer) stays valid; the damage is in
		// compressed payload, so it must surface when the chunk is decoded
		// (gzip CRC or varint decode).
		mangled := append([]byte(nil), valid...)
		mangled[headerFixedLen+len("gcc")+100] ^= 0x40
		rd, err := openBytes(mangled)
		if err != nil {
			return // caught at open time is fine too
		}
		if _, err := readRecords(rd); err == nil {
			t.Error("decoding a damaged chunk succeeded")
		}
	})
	t.Run("empty-file", func(t *testing.T) {
		if _, err := openBytes(nil); err == nil {
			t.Error("open succeeded on an empty file")
		}
	})
	// The Writer accepts any record stream, but a trace must be continuous
	// and aligned: the SimPoint profile rejects the broken record by index.
	for _, tc := range []struct {
		name   string
		mangle func(r *trace.Record)
	}{
		{"discontinuous-records", func(r *trace.Record) { r.PC += 64 }},
		{"misaligned-pc", func(r *trace.Record) { r.PC |= 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const bad = 5000 // mid-file, in the third chunk
			mangled := append([]trace.Record(nil), recs...)
			tc.mangle(&mangled[bad])
			rd, err := Open(writeContainer(t, mangled, Options{Workload: "gcc", ChunkRecords: 2048}))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer rd.Close()
			if _, _, err := trace.RepresentativeSlice(rd, 1000); err == nil ||
				!strings.Contains(err.Error(), fmt.Sprintf("record %d:", bad)) {
				t.Fatalf("RepresentativeSlice = %v, want an error naming record %d", err, bad)
			}
		})
	}
}

// TestWindowRejectsBrokenContainers streams the containers the SimPoint
// profile rejects in TestCorruptContainers through a bounded window: the streamed path must
// refuse the same broken record, by index, as it enters the window.
func TestWindowRejectsBrokenContainers(t *testing.T) {
	recs := testRecords(t, 10_000, 9)
	for _, tc := range []struct {
		name   string
		mangle func(r *trace.Record)
	}{
		{"discontinuous-records", func(r *trace.Record) { r.PC += 64 }},
		{"misaligned-pc", func(r *trace.Record) { r.PC |= 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const bad = 5000 // mid-file, in the third chunk
			mangled := append([]trace.Record(nil), recs...)
			tc.mangle(&mangled[bad])
			rd, err := Open(writeContainer(t, mangled, Options{Workload: "gcc", ChunkRecords: 2048}))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer rd.Close()
			wt, err := trace.NewWindowTrace(rd, trace.MinWindowCap)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("record %d:", bad)) {
					t.Fatalf("streaming panicked with %q, want the broken record %d named", msg, bad)
				}
			}()
			for i := 0; i < wt.Len(); i++ {
				wt.At(i)
				wt.Advance(i)
			}
		})
	}
}

// TestWideAddressesSelectAndSlice: containers keep 64-bit addresses. A
// valid container with an address of 2^32 or more goes through the whole
// `trace slice -simpoint` path: the SimPoint analysis selects an interval
// over it, Slice copies that interval out with the addresses intact, and
// the source still streams through a window.
func TestWideAddressesSelectAndSlice(t *testing.T) {
	recs := testRecords(t, 10_000, 9)
	const bad = 5000
	for _, tc := range []struct {
		name string
		wide func(recs []trace.Record)
	}{
		{"wide-effaddr", func(recs []trace.Record) { recs[bad].EffAddr = 1 << 32 }},
		// Every PC and Target moved above 4 GB: still continuous and aligned.
		{"code-above-4GB", func(recs []trace.Record) {
			for i := range recs {
				recs[i].PC += 1 << 32
				recs[i].Target += 1 << 32
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wide := append([]trace.Record(nil), recs...)
			tc.wide(wide)
			rd, err := Open(writeContainer(t, wide, Options{Workload: "gcc", ChunkRecords: 2048}))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer rd.Close()
			const interval = 2000
			iv, idx, err := trace.RepresentativeSlice(rd, interval)
			if err != nil {
				t.Fatalf("RepresentativeSlice: %v", err)
			}
			if iv.Start != idx*interval || iv.End != iv.Start+interval {
				t.Fatalf("interval %d is [%d,%d)", idx, iv.Start, iv.End)
			}
			dstPath := filepath.Join(t.TempDir(), "rep.clgt")
			dst, err := Create(dstPath, Options{Workload: "gcc", Origin: iv.Start, ChunkRecords: 2048})
			if err != nil {
				t.Fatal(err)
			}
			if err := Slice(dst, rd, iv.Start, iv.End); err != nil {
				t.Fatalf("slice: %v", err)
			}
			if err := dst.Close(); err != nil {
				t.Fatal(err)
			}
			sl, err := Open(dstPath)
			if err != nil {
				t.Fatal(err)
			}
			defer sl.Close()
			got, err := readRecords(sl)
			if err != nil {
				t.Fatalf("read slice: %v", err)
			}
			if !slices.Equal(got, wide[iv.Start:iv.End]) {
				t.Errorf("slice [%d,%d) differs from the source's records", iv.Start, iv.End)
			}
			wt, err := trace.NewWindowTrace(rd, trace.MinWindowCap)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < wt.Len(); i++ {
				if got := wt.At(i); got != wide[i] {
					t.Fatalf("streamed record %d = %+v, want %+v", i, got, wide[i])
				}
				wt.Advance(i)
			}
		})
	}
}

// FuzzOpen drives NewReader + a full decode over mutated container bytes.
// The invariant: no panic, and a successful open either decodes exactly
// Len() records or reports an error.
func FuzzOpen(f *testing.F) {
	recs := testRecords(f, 3_000, 11)
	path := writeContainer(f, recs, Options{Workload: "gcc", ChunkRecords: 1024})
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                         // truncated trailer
	f.Add(valid[:len(valid)/3])                         // truncated chunks
	f.Add(valid[:headerFixedLen])                       // header only
	f.Add(append([]byte(nil), valid[len(valid)/2:]...)) // missing header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		defer rd.Close()
		recs, err := readRecords(rd)
		if err != nil {
			return
		}
		if len(recs) != rd.Len() {
			t.Fatalf("decoded %d records, index advertises %d", len(recs), rd.Len())
		}
	})
}

func TestWriterMisuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "misuse.clgt")
	w, err := Create(path, Options{Workload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(trace.Record{}); err == nil {
		t.Error("write after Close succeeded")
	}
	if err := w.Close(); err == nil {
		t.Error("double Close succeeded")
	}
	if _, err := Create(path, Options{Workload: string(make([]byte, maxNameLen+1))}); err == nil {
		t.Error("oversized workload name accepted")
	}
}
