package tracefile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"clgp/internal/isa"
	"clgp/internal/trace"
)

// Reader decodes a container written by Writer. It keeps the footer index
// plus at most one decoded chunk resident, so memory stays bounded by the
// chunk size regardless of the trace length. A Reader is NOT safe for
// concurrent use (the decoded-chunk cache is mutable state); concurrent
// consumers each open their own Reader over the same file.
type Reader struct {
	r      io.ReaderAt
	closer io.Closer
	opts   Options
	index  []chunkInfo
	first  []int // first[i] is the trace index of chunk i's first record
	total  int

	// decoded-chunk cache
	cur  int // chunk id held in recs, -1 when empty
	recs []trace.Record
	raw  []byte // compressed chunk scratch
	pay  []byte // decompressed payload scratch
	br   *bytes.Reader
	gz   *gzip.Reader
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
		cur:   -1,
		br:    bytes.NewReader(nil),
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

// loadChunk decodes chunk c into the cache.
func (r *Reader) loadChunk(c int) error {
	if r.cur == c {
		return nil
	}
	ci := r.index[c]
	if cap(r.raw) < int(ci.length) {
		r.raw = make([]byte, ci.length)
	}
	raw := r.raw[:ci.length]
	if _, err := r.r.ReadAt(raw, int64(ci.offset)); err != nil {
		return fmt.Errorf("tracefile: reading chunk %d: %w", c, err)
	}
	r.br.Reset(raw)
	if r.gz == nil {
		gz, err := gzip.NewReader(r.br)
		if err != nil {
			return fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, c, err)
		}
		r.gz = gz
	} else if err := r.gz.Reset(r.br); err != nil {
		return fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, c, err)
	}
	r.pay = r.pay[:0]
	if cap(r.pay) == 0 {
		r.pay = make([]byte, 0, 4*r.opts.ChunkRecords)
	}
	var rbuf [4096]byte
	for {
		n, err := r.gz.Read(rbuf[:])
		r.pay = append(r.pay, rbuf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, c, err)
		}
	}
	recs, err := decodeChunk(r.pay, int(ci.count), r.recs[:0])
	if err != nil {
		return fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, c, err)
	}
	r.recs = recs
	r.cur = c
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
// contract trace.WindowTrace pulls through. Sequential reads hit the
// decoded-chunk cache, so a forward scan decodes every chunk exactly once.
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
	return copy(dst, r.recs[lo-r.first[c]:]), nil
}

// Close releases the reader and closes the underlying file when the Reader
// owns it.
func (r *Reader) Close() error {
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
