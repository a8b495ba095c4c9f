package tracefile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"

	"clgp/internal/isa"
	"clgp/internal/trace"
)

// Writer serialises records into the chunked container format. It encodes
// one chunk of records at a time on the caller's goroutine, compresses each
// full chunk on a goroutine of its own, and writes the compressed chunks to
// the underlying writer in sequence order, so the bytes do not depend on
// how many chunks were in flight. It emits the footer index and trailer on
// Close. The underlying writer never needs to seek, so any io.Writer works.
type Writer struct {
	w      io.Writer
	closer io.Closer // closed on Close when the Writer owns the file
	opts   Options

	cur   *chunk // chunk under construction
	delta deltaState

	// inflight holds the chunks handed to compressors, oldest first, at
	// most maxInFlight of them. free and freeGz hold retired chunks and
	// their compressors for reuse; a compressor is reused most recently
	// retired first, so with one chunk in flight one compressor serves all.
	inflight    []*chunk
	free        []*chunk
	freeGz      []*gzip.Writer
	maxInFlight int

	index  []chunkInfo
	offset uint64
	count  uint64
	err    error
	closed bool
}

// chunk is one chunk's raw encoding and its compressed form. A chunk, its
// buffers and the gzip.Writer lent to it are recycled once the chunk is
// written out.
type chunk struct {
	raw   []byte
	count uint32
	out   bytes.Buffer
	gz    *gzip.Writer
	err   error
	// done receives once compress has finished; its one-slot buffer lets
	// the goroutine exit without waiting for the Writer.
	done chan struct{}
}

// compress gzips raw into out; it runs on the chunk's own goroutine.
func (c *chunk) compress() {
	c.out.Reset()
	c.gz.Reset(&c.out)
	if _, c.err = c.gz.Write(c.raw); c.err == nil {
		c.err = c.gz.Close()
	}
	c.done <- struct{}{}
}

// deltaState is the per-chunk delta-encoding state; it resets at each chunk
// boundary so chunks decode independently.
type deltaState struct {
	prevTarget isa.Addr
	prevEff    isa.Addr
}

// appendRecord appends r's encoding to buf.
func (s *deltaState) appendRecord(buf []byte, r trace.Record) []byte {
	var flags byte
	if r.Taken {
		flags |= flagTaken
	}
	if r.EffAddr != 0 {
		flags |= flagHasMem
	}
	if r.Target == r.PC+isa.InstBytes {
		flags |= flagSeqNext
	}
	if r.PC == s.prevTarget {
		flags |= flagContPC
	}
	buf = append(buf, flags)
	if flags&flagContPC == 0 {
		buf = binary.AppendVarint(buf, int64(r.PC-s.prevTarget))
	}
	if flags&flagSeqNext == 0 {
		buf = binary.AppendVarint(buf, int64(r.Target-r.PC))
	}
	if flags&flagHasMem != 0 {
		buf = binary.AppendVarint(buf, int64(r.EffAddr-s.prevEff))
		s.prevEff = r.EffAddr
	}
	s.prevTarget = r.Target
	return buf
}

// NewWriter creates a Writer emitting to w and writes the container header.
func NewWriter(w io.Writer, opts Options) (*Writer, error) {
	if opts.ChunkRecords == 0 {
		opts.ChunkRecords = DefaultChunkRecords
	}
	hdr, err := encodeHeader(opts)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("tracefile: writing header: %w", err)
	}
	wr := &Writer{
		w:           w,
		opts:        opts,
		maxInFlight: runtime.GOMAXPROCS(0),
		offset:      uint64(len(hdr)),
	}
	wr.cur = wr.newChunk()
	return wr, nil
}

// Create creates (truncating) a trace file at path; Close also closes the
// file.
func Create(path string, opts Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	w, err := NewWriter(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	return w, nil
}

// Write appends one record. It implements the record-sink contract shared
// with workload generation (workload.RecordSink), so a walker can emit
// straight to disk without materialising the trace.
func (w *Writer) Write(r trace.Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("tracefile: write after Close")
	}
	w.cur.raw = w.delta.appendRecord(w.cur.raw, r)
	w.cur.count++
	w.count++
	if int(w.cur.count) >= w.opts.ChunkRecords {
		return w.startChunk()
	}
	return nil
}

// newChunk returns a retired chunk, or a fresh one when none is free.
func (w *Writer) newChunk() *chunk {
	if n := len(w.free); n > 0 {
		c := w.free[n-1]
		w.free = w.free[:n-1]
		c.raw, c.count = c.raw[:0], 0
		return c
	}
	return &chunk{raw: make([]byte, 0, 4*w.opts.ChunkRecords), done: make(chan struct{}, 1)}
}

// startChunk hands the chunk under construction to a compressor goroutine,
// first writing out the oldest chunk in flight when maxInFlight are, and
// begins the next chunk with fresh delta state.
func (w *Writer) startChunk() error {
	if w.cur.count == 0 {
		return nil
	}
	if len(w.inflight) == w.maxInFlight {
		if err := w.writeOldest(); err != nil {
			return err
		}
	}
	c := w.cur
	if n := len(w.freeGz); n > 0 {
		c.gz = w.freeGz[n-1]
		w.freeGz = w.freeGz[:n-1]
	} else {
		c.gz = gzip.NewWriter(nil)
	}
	w.inflight = append(w.inflight, c)
	go c.compress()
	w.cur = w.newChunk()
	w.delta = deltaState{}
	return nil
}

// writeOldest waits for the oldest chunk in flight, writes it to the
// underlying writer and enters it into the index. The first error sticks,
// naming its chunk; the chunks after it are awaited and never written.
func (w *Writer) writeOldest() error {
	c := w.inflight[0]
	<-c.done
	w.inflight = w.inflight[:copy(w.inflight, w.inflight[1:])]
	w.freeGz = append(w.freeGz, c.gz)
	seq := len(w.index)
	if c.err != nil {
		return w.fail(fmt.Errorf("tracefile: compressing chunk %d: %w", seq, c.err))
	}
	if _, err := w.w.Write(c.out.Bytes()); err != nil {
		return w.fail(fmt.Errorf("tracefile: writing chunk %d: %w", seq, err))
	}
	w.index = append(w.index, chunkInfo{
		offset: w.offset,
		length: uint32(c.out.Len()),
		count:  c.count,
	})
	w.offset += uint64(c.out.Len())
	w.free = append(w.free, c)
	return nil
}

// fail records err as the Writer's sticky error and waits for every
// compressor still running, so none outlives the failure.
func (w *Writer) fail(err error) error {
	w.err = err
	for _, c := range w.inflight {
		<-c.done
	}
	w.inflight = nil
	return err
}

// flush compresses the final partial chunk and writes out every chunk in
// flight, in sequence order.
func (w *Writer) flush() error {
	if err := w.startChunk(); err != nil {
		return err
	}
	for len(w.inflight) > 0 {
		if err := w.writeOldest(); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes the final partial chunk, writes the footer index and the
// trailer, and closes the underlying file when the Writer owns it. It must
// be called exactly once; the file is not a valid container before Close.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("tracefile: double Close")
	}
	w.closed = true
	closeFile := func() error {
		if w.closer == nil {
			return nil
		}
		return w.closer.Close()
	}
	if w.err != nil {
		closeFile()
		return w.err
	}
	if err := w.flush(); err != nil {
		closeFile()
		return err
	}
	footer := encodeFooter(w.index, w.count)
	if _, err := w.w.Write(footer); err != nil {
		closeFile()
		return fmt.Errorf("tracefile: writing footer: %w", err)
	}
	trailer := encodeTrailer(w.offset, uint32(len(footer)))
	if _, err := w.w.Write(trailer); err != nil {
		closeFile()
		return fmt.Errorf("tracefile: writing trailer: %w", err)
	}
	if err := closeFile(); err != nil {
		return fmt.Errorf("tracefile: closing file: %w", err)
	}
	return nil
}
