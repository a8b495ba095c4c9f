package tracefile

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"clgp/internal/isa"
	"clgp/internal/trace"
)

// seqWriter is the sequential reference for Writer: it compresses and
// writes each chunk on the caller's goroutine the moment the chunk fills,
// with one reused gzip.Writer. The concurrent Writer must emit its bytes
// exactly.
type seqWriter struct {
	w       io.Writer
	buf     []byte
	inChunk uint32
	delta   deltaState
	chunk   int
	cb      bytes.Buffer
	gz      *gzip.Writer
	index   []chunkInfo
	offset  uint64
	count   uint64
}

// writeSequential writes recs through the reference writer and returns the
// container bytes.
func writeSequential(t testing.TB, recs []trace.Record, opts Options) []byte {
	t.Helper()
	var out bytes.Buffer
	hdr, err := encodeHeader(opts)
	if err != nil {
		t.Fatal(err)
	}
	out.Write(hdr)
	w := &seqWriter{w: &out, chunk: opts.ChunkRecords, gz: gzip.NewWriter(io.Discard), offset: uint64(len(hdr))}
	for _, r := range recs {
		w.buf = w.delta.appendRecord(w.buf, r)
		w.inChunk++
		w.count++
		if int(w.inChunk) >= w.chunk {
			w.flushChunk()
		}
	}
	w.flushChunk()
	footer := encodeFooter(w.index, w.count)
	out.Write(footer)
	out.Write(encodeTrailer(w.offset, uint32(len(footer))))
	return out.Bytes()
}

// flushChunk compresses and emits the chunk under construction.
func (w *seqWriter) flushChunk() {
	if w.inChunk == 0 {
		return
	}
	w.cb.Reset()
	w.gz.Reset(&w.cb)
	w.gz.Write(w.buf)
	w.gz.Close()
	w.w.Write(w.cb.Bytes())
	w.index = append(w.index, chunkInfo{
		offset: w.offset,
		length: uint32(w.cb.Len()),
		count:  w.inChunk,
	})
	w.offset += uint64(w.cb.Len())
	w.buf = w.buf[:0]
	w.inChunk = 0
	w.delta = deltaState{}
}

// writeConcurrent writes recs through Writer and returns the container
// bytes.
func writeConcurrent(t testing.TB, recs []trace.Record, opts Options) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := NewWriter(&out, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// fuzzWriterRecords turns data into records, three bytes each: a mix byte
// and two signed delta bytes. The mix byte picks taken (bit 0), a memory
// access (bit 1), a sequential Target (bit 2) and a PC that continues the
// previous Target (bit 3); bit 4 widens the PC delta and bits 5-7 shift the
// memory delta, so varints of every length appear. Records need not form a
// valid trace: the Writer accepts any stream.
func fuzzWriterRecords(data []byte) []trace.Record {
	var recs []trace.Record
	next, eff := isa.Addr(0x40_0000), isa.Addr(0x1000_0000)
	for ; len(data) >= 3; data = data[3:] {
		mix, a, b := data[0], int64(int8(data[1])), int64(int8(data[2]))
		if mix&0x10 != 0 {
			a <<= 24
		}
		r := trace.Record{PC: next, Taken: mix&1 != 0}
		if mix&8 == 0 {
			r.PC += isa.Addr(a * isa.InstBytes)
		}
		r.Target = r.PC + isa.InstBytes
		if mix&4 == 0 {
			r.Target = r.PC + isa.Addr(b*isa.InstBytes)
		}
		if mix&2 != 0 {
			eff += isa.Addr(b << (mix >> 5))
			r.EffAddr = eff
		}
		recs = append(recs, r)
		next = r.Target
	}
	return recs
}

// FuzzWriterMatchesSequential: for any record stream and any chunk size
// from 1 to 300, the concurrent Writer emits exactly the bytes of the
// sequential reference. Inputs are cut at maxFuzzRecords: every chunk costs
// two gzip resets, so a long stream in one-record chunks would stall the
// fuzzer on one input. The seed corpus is in
// testdata/fuzz/FuzzWriterMatchesSequential.
func FuzzWriterMatchesSequential(f *testing.F) {
	const maxFuzzRecords = 1000
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		recs := fuzzWriterRecords(data[:min(len(data), 3*maxFuzzRecords)])
		opts := Options{Workload: "fuzz", Seed: 1, ChunkRecords: int(chunk)%300 + 1}
		want := writeSequential(t, recs, opts)
		got := writeConcurrent(t, recs, opts)
		if !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Fatalf("%d records in %d-record chunks: %d bytes, reference %d; first difference at byte %d",
				len(recs), opts.ChunkRecords, len(got), len(want), at)
		}
	})
}

var errSinkFull = errors.New("sink full")

// failingSink accepts its first ok Write calls and fails every later one.
type failingSink struct {
	ok, calls int
}

func (s *failingSink) Write(p []byte) (int, error) {
	s.calls++
	if s.calls > s.ok {
		return 0, errSinkFull
	}
	return len(p), nil
}

// TestWriterErrorStopsCleanly: when the underlying writer fails on chunk k,
// the error surfaces from Write or Close naming chunk k, it sticks, nothing
// more reaches the writer, no chunk from k on enters the index, and no
// compressor goroutine outlives Close. Four chunks may be in flight,
// whatever the host's CPU count, so at the failure several compressors are
// still busy.
func TestWriterErrorStopsCleanly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	recs := testRecords(t, 60_000, 5)
	const chunkRecords = 4096
	chunks := (len(recs) + chunkRecords - 1) / chunkRecords
	for _, k := range []int{0, 1, 7, chunks - 2, chunks - 1, -1} {
		name := fmt.Sprintf("chunk-%d", k)
		if k < 0 {
			name = "no-failure"
		}
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			// Write call 1 is the header; chunk k is call k+2.
			sink := &failingSink{ok: k + 1}
			if k < 0 {
				sink.ok = chunks + 3
			}
			w, err := NewWriter(sink, Options{Workload: "gcc", ChunkRecords: chunkRecords})
			if err != nil {
				t.Fatal(err)
			}
			var werr error
			for _, r := range recs {
				if werr = w.Write(r); werr != nil {
					break
				}
			}
			cerr := w.Close()
			checkCompressorsGone(t, base)
			if k < 0 {
				if werr != nil || cerr != nil || len(w.index) != chunks || sink.calls != chunks+3 {
					t.Fatalf("Write %v, Close %v, %d chunks indexed in %d writes; want %d chunks in %d writes",
						werr, cerr, len(w.index), sink.calls, chunks, chunks+3)
				}
				return
			}
			err = werr
			if err == nil {
				err = cerr
			}
			if !errors.Is(err, errSinkFull) || !strings.Contains(err.Error(), fmt.Sprintf("writing chunk %d:", k)) {
				t.Fatalf("got %v, want the sink's error naming chunk %d", err, k)
			}
			if werr != nil && cerr != werr {
				t.Errorf("Close after a failed Write returned %v, want the sticky %v", cerr, werr)
			}
			if again := w.Write(recs[0]); again == nil {
				t.Error("Write after a failure succeeded")
			}
			if len(w.index) != k {
				t.Errorf("%d chunks entered the index, want %d", len(w.index), k)
			}
			if sink.calls != k+2 {
				t.Errorf("the sink saw %d writes, want %d: nothing may follow the failed one", sink.calls, k+2)
			}
		})
	}
}

// checkCompressorsGone fails the test if, right after Close, any goroutine
// is still inside gzip, or if the goroutine count does not settle back to
// base. A compressor goroutine exits just after it reports its chunk, so
// the count may take a moment to drop.
func checkCompressorsGone(t *testing.T, base int) {
	t.Helper()
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if bytes.Contains(stacks, []byte("compress/flate.")) || bytes.Contains(stacks, []byte("compress/gzip.")) {
		t.Fatalf("a goroutine is still compressing after Close:\n%s", stacks)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Close, %d before the Writer", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
