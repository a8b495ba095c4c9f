package tracefile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"clgp/internal/trace"
)

// openWritten writes recs into a container and opens it over its bytes.
func openWritten(t *testing.T, recs []trace.Record, chunkRecords int) (*Reader, []byte) {
	t.Helper()
	data, err := os.ReadFile(writeContainer(t, recs, Options{Workload: "gcc", ChunkRecords: chunkRecords}))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return rd, data
}

// retained returns how many decoders the shared list holds.
func retained() int {
	decoders.mu.Lock()
	defer decoders.mu.Unlock()
	return len(decoders.free)
}

// TestReadersHoldNoChunkAtRest: Readers on several goroutines at once read
// every record back exactly; each holds the chunk it reads and the one it
// prestages while it scans, and nothing once read to its end; and the
// shared list never retains more than GOMAXPROCS decoders, even after many
// Readers hand theirs back at once.
func TestReadersHoldNoChunkAtRest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	recs := testRecords(t, 12_000, 3)
	path := writeContainer(t, recs, Options{Workload: "gcc", ChunkRecords: 2048})
	const readers = 6
	rds := make([]*Reader, readers)
	for i := range rds {
		rd, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		rds[i] = rd
		if rd.dec != nil || rd.ahead != nil {
			t.Fatal("a Reader that has not been read holds a chunk")
		}
		if _, err := rd.ReadRecordsAt(100, make([]trace.Record, 10)); err != nil {
			t.Fatal(err)
		}
		if rd.dec == nil || rd.cur != 0 || rd.ahead == nil || rd.ahead.c != 1 {
			t.Fatal("a read inside chunk 0 did not hold chunk 0 and prestage chunk 1")
		}
	}
	var wg sync.WaitGroup
	for _, rd := range rds {
		wg.Add(1)
		go func(rd *Reader) {
			defer wg.Done()
			got, err := readRecords(rd)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range got {
				if got[i] != recs[i] {
					t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
					return
				}
			}
			if rd.dec != nil || rd.ahead != nil {
				t.Error("a Reader read to its end still holds a chunk")
			}
		}(rd)
	}
	wg.Wait()
	if n := retained(); n > 2 {
		t.Fatalf("the shared list retains %d decoders, GOMAXPROCS is 2", n)
	}
	// Every Reader mid-scan again, then all closed: 2 decoders each come back.
	for _, rd := range rds {
		if _, err := rd.ReadRecordsAt(5000, make([]trace.Record, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rd := range rds {
		if err := rd.Close(); err != nil {
			t.Fatal(err)
		}
		if rd.dec != nil || rd.ahead != nil {
			t.Fatal("a closed Reader still holds a chunk")
		}
	}
	if n := retained(); n > 2 {
		t.Fatalf("the shared list retains %d decoders, GOMAXPROCS is 2", n)
	}
}

// failAt is a ReaderAt that fails every read at one offset.
type failAt struct {
	io.ReaderAt
	off int64
}

var errInjected = errors.New("injected read failure")

func (f *failAt) ReadAt(p []byte, off int64) (int, error) {
	if off == f.off {
		return 0, errInjected
	}
	return f.ReaderAt.ReadAt(p, off)
}

// TestReadAheadErrorReachesItsChunk: when chunk k > 0 is corrupt, or its
// read fails, the records before it read back exactly although its
// prestaging failed while chunk k-1 was read, and the first read that
// reaches chunk k fails with the error naming chunk k. A read that jumps
// elsewhere instead of reaching chunk k is not failed by it.
func TestReadAheadErrorReachesItsChunk(t *testing.T) {
	recs := testRecords(t, 10_000, 9)
	rd, valid := openWritten(t, recs, 2048)
	defer rd.Close()
	chunks := rd.NumChunks()
	for _, k := range []int{1, 2, chunks - 1} {
		ci := rd.Chunk(k)
		corrupt := append([]byte(nil), valid...)
		corrupt[ci.Offset+int64(ci.CompressedBytes)/2] ^= 0x40
		for _, tc := range []struct {
			name string
			src  io.ReaderAt
			want func(error) bool
			text string
		}{
			{"corrupt", bytes.NewReader(corrupt), func(err error) bool { return errors.Is(err, ErrCorrupt) },
				fmt.Sprintf("chunk %d: ", k)},
			{"read-failure", &failAt{bytes.NewReader(valid), ci.Offset}, func(err error) bool { return errors.Is(err, errInjected) },
				fmt.Sprintf("tracefile: reading chunk %d: ", k)},
		} {
			t.Run(fmt.Sprintf("%s-chunk-%d", tc.name, k), func(t *testing.T) {
				rd, err := NewReader(tc.src, int64(len(valid)))
				if err != nil {
					t.Fatal(err)
				}
				defer rd.Close()
				buf := make([]trace.Record, 1000)
				lo := 0
				for lo < ci.FirstRecord {
					n, err := rd.ReadRecordsAt(lo, buf)
					if err != nil {
						t.Fatalf("read at %d, before chunk %d: %v", lo, k, err)
					}
					for j := 0; j < n; j++ {
						if buf[j] != recs[lo+j] {
							t.Fatalf("record %d = %+v, want %+v", lo+j, buf[j], recs[lo+j])
						}
					}
					lo += n
				}
				if rd.ahead == nil || rd.ahead.c != k {
					t.Fatalf("reading chunk %d did not prestage chunk %d", k-1, k)
				}
				_, err = rd.ReadRecordsAt(lo, buf)
				if !tc.want(err) || !strings.Contains(err.Error(), tc.text) {
					t.Fatalf("the first read of chunk %d returned %v, want an error containing %q", k, err, tc.text)
				}
				if rd.dec != nil {
					t.Fatal("a failed read left a chunk held")
				}
				// Reach chunk k-1 again, so chunk k is prestaged, then jump
				// back to the start.
				if _, err := rd.ReadRecordsAt(ci.FirstRecord-1, buf); err != nil {
					t.Fatal(err)
				}
				if n, err := rd.ReadRecordsAt(0, buf); err != nil || buf[0] != recs[0] || n == 0 {
					t.Fatalf("a jump back to record 0 returned %d records, %v", n, err)
				}
			})
		}
	}
}

// gatedReaderAt blocks reads at one offset until the gate opens, and
// reports on entered when such a read has started.
type gatedReaderAt struct {
	io.ReaderAt
	off     int64
	gate    chan struct{}
	entered chan struct{}
}

func (g *gatedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off == g.off {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.ReaderAt.ReadAt(p, off)
}

// TestCloseWaitsForReadAhead: Close with a read-ahead still running waits
// for it, returns cleanly, and leaves no goroutine behind.
func TestCloseWaitsForReadAhead(t *testing.T) {
	recs := testRecords(t, 6000, 4)
	rd, data := openWritten(t, recs, 2048)
	base := runtime.NumGoroutine()
	g := &gatedReaderAt{ReaderAt: bytes.NewReader(data), off: rd.Chunk(1).Offset,
		gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	rd, err := NewReader(g, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.ReadRecordsAt(0, make([]trace.Record, 1)); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the read-ahead of chunk 1 is now blocked in ReadAt
	closed := make(chan error, 1)
	go func() { closed <- rd.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the read-ahead was still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(g.gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rd.dec != nil || rd.ahead != nil {
		t.Fatal("a closed Reader still holds a chunk")
	}
	checkCompressorsGone(t, base)
}

// TestReadRecordsAtJumps: reads that go backwards, stay in the chunk just
// released, land on the prestaged chunk or jump past it return the right
// records.
func TestReadRecordsAtJumps(t *testing.T) {
	recs := testRecords(t, 20_000, 6)
	const chunk = 1024
	rd, _ := openWritten(t, recs, chunk)
	defer rd.Close()
	rng := rand.New(rand.NewSource(1))
	buf := make([]trace.Record, 3000)
	los := []int{0, chunk - 1, chunk - 1, chunk, 0, 5 * chunk, 3 * chunk, 4*chunk + 7, len(recs) - 1, 2*chunk - 1, 2 * chunk}
	for i := 0; i < 300; i++ {
		los = append(los, rng.Intn(len(recs)))
	}
	for _, lo := range los {
		want := 1 + rng.Intn(len(buf))
		n, err := rd.ReadRecordsAt(lo, buf[:want])
		if err != nil {
			t.Fatalf("ReadRecordsAt(%d): %v", lo, err)
		}
		if end := min(want, chunk-lo%chunk, len(recs)-lo); n != end {
			t.Fatalf("ReadRecordsAt(%d, %d) copied %d records, want %d", lo, want, n, end)
		}
		for j := 0; j < n; j++ {
			if buf[j] != recs[lo+j] {
				t.Fatalf("read from %d: record %d = %+v, want %+v", lo, lo+j, buf[j], recs[lo+j])
			}
		}
	}
}
