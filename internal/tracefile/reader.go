package tracefile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"

	"clgp/internal/isa"
	"clgp/internal/trace"
)

// Reader decodes a container written by Writer. It keeps the footer index
// resident and prestages the trace: once a read makes chunk c current, the
// Reader starts decoding chunk c+1 on a goroutine of its own, so a forward
// scan finds the next chunk decoded, or being decoded on another core, when
// it gets there. Decoded chunks live in decoders shared by every Reader
// (see decoders), and a read that copies out the last record of the
// current chunk hands its decoder straight back. So a Reader at rest (read
// to its end, or not read yet) holds no decoded records, and one in the
// middle of a forward scan holds two chunks: the current one and the one
// being prestaged.
//
// A Reader is NOT safe for concurrent use (the current chunk is mutable
// state); concurrent consumers each open their own Reader over the same
// file. The read-ahead shares only the immutable index and the io.ReaderAt,
// whose contract allows parallel ReadAt calls.
type Reader struct {
	r      io.ReaderAt
	closer io.Closer
	opts   Options
	index  []chunkInfo
	first  []int // first[i] is the trace index of chunk i's first record
	total  int

	cur   int        // the chunk dec holds; meaningless while dec is nil
	dec   *decoder   // the current chunk, nil when the Reader holds none
	ahead *readAhead // the prestaging of chunk cur+1, nil when none runs
}

// readAhead is one chunk decode on a goroutine of its own. d is set before
// the goroutine starts; err is written before done closes and read only
// after.
type readAhead struct {
	c    int
	d    *decoder
	err  error
	done chan struct{}
}

// decoder is the scratch of one chunk decode: the compressed bytes, the
// gunzipped payload, the decoded records and the gzip state.
type decoder struct {
	raw  []byte
	pay  []byte
	recs []trace.Record
	br   bytes.Reader
	gz   *gzip.Reader
}

// decoders is the list every Reader takes its decoders from and hands them
// back to, so the buffers of a finished chunk decode the next chunk of any
// Reader. Like freelist.Bytes it retains at most GOMAXPROCS decoders, one
// per goroutine that can decode at once; a decoder handed back to a full
// list is left to the collector.
var decoders decoderList

type decoderList struct {
	mu   sync.Mutex
	free []*decoder
}

func (l *decoderList) get() *decoder {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(decoder)
	}
	d := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return d
}

func (l *decoderList) put(d *decoder) {
	l.mu.Lock()
	if len(l.free) < runtime.GOMAXPROCS(0) {
		l.free = append(l.free, d)
	}
	l.mu.Unlock()
}

// NewReader opens a container over any random-access byte source of the
// given size, validating the trailer, footer index and header.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size < headerFixedLen+trailerLen {
		return nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, size)
	}
	tbuf := make([]byte, trailerLen)
	if _, err := r.ReadAt(tbuf, size-trailerLen); err != nil {
		return nil, fmt.Errorf("tracefile: reading trailer: %w", err)
	}
	footOff, footLen, err := decodeTrailer(tbuf)
	if err != nil {
		return nil, err
	}
	if footOff+uint64(footLen) != uint64(size-trailerLen) || footOff < headerFixedLen {
		return nil, fmt.Errorf("%w: footer [%d,+%d) inconsistent with file size %d", ErrCorrupt, footOff, footLen, size)
	}
	fbuf := make([]byte, footLen)
	if _, err := r.ReadAt(fbuf, int64(footOff)); err != nil {
		return nil, fmt.Errorf("tracefile: reading footer: %w", err)
	}
	index, total, err := decodeFooter(fbuf)
	if err != nil {
		return nil, err
	}
	// The header ends where the first chunk (or, for an empty trace, the
	// footer) begins.
	hdrEnd := footOff
	if len(index) > 0 {
		hdrEnd = index[0].offset
	}
	if hdrEnd < headerFixedLen || hdrEnd > uint64(size) {
		return nil, fmt.Errorf("%w: header extent %d out of range", ErrCorrupt, hdrEnd)
	}
	hbuf := make([]byte, hdrEnd)
	if _, err := r.ReadAt(hbuf, 0); err != nil {
		return nil, fmt.Errorf("tracefile: reading header: %w", err)
	}
	opts, hdrLen, err := decodeHeader(hbuf)
	if err != nil {
		return nil, err
	}
	if uint64(hdrLen) != hdrEnd {
		return nil, fmt.Errorf("%w: header is %d bytes but chunks start at %d", ErrCorrupt, hdrLen, hdrEnd)
	}
	// Validate the index: chunks must be contiguous, in-bounds, non-empty
	// and sum to the advertised total, so a truncated or spliced file fails
	// here instead of mid-stream.
	first := make([]int, len(index))
	next := hdrEnd
	sum := uint64(0)
	for i, ci := range index {
		if ci.offset != next {
			return nil, fmt.Errorf("%w: chunk %d at offset %d, want %d", ErrCorrupt, i, ci.offset, next)
		}
		if ci.length == 0 || ci.count == 0 || int(ci.count) > opts.ChunkRecords {
			return nil, fmt.Errorf("%w: chunk %d has %d bytes / %d records (chunk size %d)",
				ErrCorrupt, i, ci.length, ci.count, opts.ChunkRecords)
		}
		first[i] = int(sum)
		next += uint64(ci.length)
		sum += uint64(ci.count)
	}
	if next != footOff {
		return nil, fmt.Errorf("%w: chunks end at %d, footer starts at %d", ErrCorrupt, next, footOff)
	}
	if sum != total {
		return nil, fmt.Errorf("%w: index counts %d records, footer advertises %d", ErrCorrupt, sum, total)
	}
	if total > uint64(1)<<40 {
		return nil, fmt.Errorf("%w: implausible record count %d", ErrCorrupt, total)
	}
	return &Reader{
		r:     r,
		opts:  opts,
		index: index,
		first: first,
		total: int(total),
	}, nil
}

// Open opens the trace file at path; Close also closes the file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.closer = f
	return r, nil
}

// Len returns the total number of records in the container (from the footer
// index, so it is definite without decoding any chunk).
func (r *Reader) Len() int { return r.total }

// Workload returns the workload name stored in the header.
func (r *Reader) Workload() string { return r.opts.Workload }

// Fingerprint returns the workload fingerprint stored in the header
// (zero when the trace was recorded without one).
func (r *Reader) Fingerprint() uint64 { return r.opts.Fingerprint }

// Seed returns the workload generation seed stored in the header.
func (r *Reader) Seed() int64 { return r.opts.Seed }

// Origin returns the trace index (within the full generation) of the
// container's first record: 0 for a full recording, the interval start for
// a slice.
func (r *Reader) Origin() int { return r.opts.Origin }

// ChunkRecords returns the nominal records-per-chunk of the container.
func (r *Reader) ChunkRecords() int { return r.opts.ChunkRecords }

// NumChunks returns the number of chunks.
func (r *Reader) NumChunks() int { return len(r.index) }

// ChunkInfo describes one chunk for inspection tools.
type ChunkInfo struct {
	// FirstRecord is the trace index of the chunk's first record.
	FirstRecord int
	// Records is the number of records in the chunk.
	Records int
	// Offset and CompressedBytes locate the chunk's gzip stream in the file.
	Offset          int64
	CompressedBytes int
}

// Chunk returns the index entry of chunk i.
func (r *Reader) Chunk(i int) ChunkInfo {
	ci := r.index[i]
	return ChunkInfo{
		FirstRecord:     r.first[i],
		Records:         int(ci.count),
		Offset:          int64(ci.offset),
		CompressedBytes: int(ci.length),
	}
}

// CompressedBytes returns the total compressed payload size over all chunks.
func (r *Reader) CompressedBytes() int64 {
	var n int64
	for _, ci := range r.index {
		n += int64(ci.length)
	}
	return n
}

// chunkOf returns the chunk holding trace index i.
func (r *Reader) chunkOf(i int) int {
	// First chunk whose first record is beyond i, minus one.
	return sort.Search(len(r.first), func(c int) bool { return r.first[c] > i }) - 1
}

// loadChunk makes chunk c current: it takes the prestaged decode when that
// is chunk c, and decodes c on the caller's goroutine otherwise. Either way
// it then starts prestaging chunk c+1. An error from the prestaging
// reaches only the first read of its chunk; a read elsewhere discards it.
func (r *Reader) loadChunk(c int) error {
	if r.dec != nil && r.cur == c {
		return nil
	}
	r.release()
	var d *decoder
	var err error
	if a := r.ahead; a != nil {
		r.ahead = nil
		<-a.done
		if a.c == c {
			d, err = a.d, a.err
		} else {
			decoders.put(a.d)
		}
	}
	if d == nil {
		d = decoders.get()
		err = d.decode(r.r, c, r.index[c], r.opts.ChunkRecords)
	}
	if err != nil {
		decoders.put(d)
		return err
	}
	r.cur, r.dec = c, d
	if c+1 < len(r.index) {
		r.ahead = prestage(r.r, c+1, r.index[c+1], r.opts.ChunkRecords)
	}
	return nil
}

// prestage starts decoding chunk c on a goroutine of its own, which ends
// when the decode does.
func prestage(src io.ReaderAt, c int, ci chunkInfo, chunkRecords int) *readAhead {
	a := &readAhead{c: c, d: decoders.get(), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		a.err = a.d.decode(src, c, ci, chunkRecords)
	}()
	return a
}

// release hands the current chunk's decoder back to the shared list.
func (r *Reader) release() {
	if r.dec != nil {
		decoders.put(r.dec)
		r.dec = nil
	}
}

// decode reads chunk c, whose index entry is ci, from src and decodes its
// records into d.recs. It touches nothing but d and its arguments, so a
// read-ahead goroutine runs it while the Reader serves another chunk.
func (d *decoder) decode(src io.ReaderAt, c int, ci chunkInfo, chunkRecords int) error {
	if cap(d.raw) < int(ci.length) {
		d.raw = make([]byte, ci.length)
	}
	raw := d.raw[:ci.length]
	if _, err := src.ReadAt(raw, int64(ci.offset)); err != nil {
		return fmt.Errorf("tracefile: reading chunk %d: %w", c, err)
	}
	d.br.Reset(raw)
	if d.gz == nil {
		gz, err := gzip.NewReader(&d.br)
		if err != nil {
			return fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, c, err)
		}
		d.gz = gz
	} else if err := d.gz.Reset(&d.br); err != nil {
		return fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, c, err)
	}
	d.pay = d.pay[:0]
	if cap(d.pay) == 0 {
		d.pay = make([]byte, 0, 4*chunkRecords)
	}
	var rbuf [4096]byte
	for {
		n, err := d.gz.Read(rbuf[:])
		d.pay = append(d.pay, rbuf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, c, err)
		}
	}
	recs, err := decodeChunk(d.pay, int(ci.count), d.recs[:0])
	if err != nil {
		return fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, c, err)
	}
	d.recs = recs
	return nil
}

// decodeChunk decodes one chunk payload holding want records, appending to
// dst.
func decodeChunk(payload []byte, want int, dst []trace.Record) ([]trace.Record, error) {
	var prevTarget, prevEff isa.Addr
	off := 0
	readDelta := func() (int64, error) {
		v, n := binary.Varint(payload[off:])
		if n <= 0 {
			return 0, fmt.Errorf("bad varint at payload offset %d", off)
		}
		off += n
		return v, nil
	}
	for i := 0; i < want; i++ {
		if off >= len(payload) {
			return nil, fmt.Errorf("payload exhausted after %d of %d records", i, want)
		}
		flags := payload[off]
		off++
		var rec trace.Record
		if flags&flagContPC != 0 {
			rec.PC = prevTarget
		} else {
			d, err := readDelta()
			if err != nil {
				return nil, err
			}
			rec.PC = prevTarget + isa.Addr(d)
		}
		if flags&flagSeqNext != 0 {
			rec.Target = rec.PC + isa.InstBytes
		} else {
			d, err := readDelta()
			if err != nil {
				return nil, err
			}
			rec.Target = rec.PC + isa.Addr(d)
		}
		if flags&flagHasMem != 0 {
			d, err := readDelta()
			if err != nil {
				return nil, err
			}
			rec.EffAddr = prevEff + isa.Addr(d)
			prevEff = rec.EffAddr
		}
		rec.Taken = flags&flagTaken != 0
		prevTarget = rec.Target
		dst = append(dst, rec)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%d trailing payload bytes after %d records", len(payload)-off, want)
	}
	return dst, nil
}

// ReadRecordsAt fills dst with records starting at trace index lo and
// returns how many were copied (possibly fewer than len(dst) when lo's chunk
// ends; call again with a higher lo for more). It satisfies the streaming
// contract trace.WindowTrace pulls through. A forward scan decodes every
// chunk exactly once, each but the first on the read-ahead goroutine, and
// the read that copies out a chunk's last record releases the chunk.
func (r *Reader) ReadRecordsAt(lo int, dst []trace.Record) (int, error) {
	if lo < 0 || lo >= r.total {
		return 0, fmt.Errorf("tracefile: record %d out of range 0..%d", lo, r.total)
	}
	if len(dst) == 0 {
		return 0, nil
	}
	c := r.chunkOf(lo)
	if err := r.loadChunk(c); err != nil {
		return 0, err
	}
	recs := r.dec.recs[lo-r.first[c]:]
	n := copy(dst, recs)
	if n == len(recs) {
		r.release()
	}
	return n, nil
}

// Close waits for a read-ahead still running, hands back every decoder the
// Reader holds, and closes the underlying file when the Reader owns it.
func (r *Reader) Close() error {
	r.release()
	if a := r.ahead; a != nil {
		r.ahead = nil
		<-a.done
		decoders.put(a.d)
	}
	if r.closer != nil {
		err := r.closer.Close()
		r.closer = nil
		return err
	}
	return nil
}

// Slice copies records [lo, hi) of src into dst, touching only the chunks
// that overlap the range — the SimPoint use case of extracting one
// representative interval out of a long captured trace. The caller remains
// responsible for closing dst, and should create it with
// Options.Origin = src.Origin()+lo so consumers can tell a mid-trace
// interval from a from-the-start recording.
func Slice(dst *Writer, src *Reader, lo, hi int) error {
	if lo < 0 || hi > src.Len() || lo > hi {
		return fmt.Errorf("tracefile: slice [%d,%d) out of range 0..%d", lo, hi, src.Len())
	}
	var batch [4096]trace.Record
	for i := lo; i < hi; {
		want := hi - i
		if want > len(batch) {
			want = len(batch)
		}
		n, err := src.ReadRecordsAt(i, batch[:want])
		if err != nil {
			return err
		}
		for _, rec := range batch[:n] {
			if err := dst.Write(rec); err != nil {
				return err
			}
		}
		i += n
	}
	return nil
}
