// Package snap provides the serialisation substrate for warm-state engine
// snapshots: a little-endian binary encoder, a strict sticky-error decoder,
// a Walker that drives either one through a component's fields, and a
// sealed container format (magic, version pin, length checks, CRC32)
// mirroring the tracefile container's validation discipline.
//
// The byte layout is specified in FORMAT.md next to this file. Component
// packages (cache, bus, memory, bpred, ftq, prebuffer, prefetch, pipeline,
// core) each walk their state once, in a Walk method that both saves and
// loads; the container framing keeps a corrupted or mismatched snapshot
// from ever reaching those walks with silently wrong data.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"clgp/internal/freelist"
)

// Magic identifies a CLGP snapshot container ("CLGS" little-endian).
const Magic uint32 = 0x53474C43

// Version is the container version this package writes and the only version
// it reads. Any layout change to the payload (component walks included) must
// bump it: restore compatibility across versions is intentionally not
// attempted — snapshots are cheap, regenerable cache artifacts.
const Version uint32 = 1

// Sentinel errors, matched with errors.Is by callers that distinguish
// "not a snapshot" from "damaged snapshot".
var (
	// ErrBadMagic means the data does not start with the snapshot magic.
	ErrBadMagic = errors.New("snap: bad magic (not a snapshot container)")
	// ErrBadVersion means the container version is not Version.
	ErrBadVersion = errors.New("snap: unsupported snapshot version")
	// ErrCorrupt means framing, lengths or the checksum failed validation.
	ErrCorrupt = errors.New("snap: corrupt snapshot")
)

// Meta identifies what a snapshot captures: which record stream (workload
// name + fingerprint, trace length), which warm-relevant configuration
// (WarmKey), and where along the run it was taken (committed instructions and
// cycle). Restore validates every field before touching engine state.
type Meta struct {
	// Workload is the workload/profile name.
	Workload string
	// Fingerprint is the workload record-stream fingerprint
	// (workload.Fingerprint / tracefile fingerprint).
	Fingerprint uint64
	// WarmKey is the hash of the configuration fields that determine warm-up
	// state (core.Config.WarmKey).
	WarmKey uint64
	// TraceLen is the full trace length in records.
	TraceLen int64
	// Committed is the number of committed instructions at the snapshot
	// point (the warm-up boundary).
	Committed uint64
	// Cycle is the engine cycle at the snapshot point.
	Cycle uint64
}

// Encoder accumulates the little-endian binary stream. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the accumulated stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Tag appends a section tag. Component walks open their section with a tag
// so a reader that drifts out of phase fails immediately instead of
// reinterpreting unrelated bytes.
func (e *Encoder) Tag(t uint32) { e.U32(t) }

// Decoder is a strict, sticky-error reader over an encoded stream: the first
// failure latches and every subsequent read returns zero values, so walks can
// decode straight-line and check Err once at the end.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder wraps data for decoding.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes (0 once an error latched).
func (d *Decoder) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.data) - d.off
}

// Failf latches a formatted corruption error (wrapping ErrCorrupt). Component
// walks use it to reject semantic mismatches (geometry, capacities) that
// byte-level framing cannot see.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, latching ErrCorrupt on underrun.
func (d *Decoder) take(n int) []byte {
	if d.err != nil || n < 0 || len(d.data)-d.off < n {
		d.underrun(n)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// underrun latches the failure of a read of n bytes past the end, unless a
// failure has latched already. It stays out of line, so the reads below
// make no call while their bytes last.
//
//go:noinline
func (d *Decoder) underrun(n int) {
	if d.err == nil {
		d.Failf("truncated: need %d bytes at offset %d, have %d", n, d.off, len(d.data)-d.off)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	var v uint8
	d.readU8(&v)
	return v
}

// readU8 is U8 storing through p, the form a Walker calls.
func (d *Decoder) readU8(p *uint8) {
	if d.err != nil || d.off >= len(d.data) {
		d.underrun(1)
		*p = 0
		return
	}
	*p = d.data[d.off]
	d.off++
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	var v uint64
	d.readU64(&v)
	return v
}

// readU64 is U64 storing through p, the form a Walker calls.
func (d *Decoder) readU64(p *uint64) {
	if d.err != nil || len(d.data)-d.off < 8 {
		d.underrun(8)
		*p = 0
		return
	}
	*p = binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64 and narrows it to int, rejecting overflow.
func (d *Decoder) Int() int {
	var v int
	d.readInt(&v)
	return v
}

// readInt is Int storing through p, the form a Walker calls.
func (d *Decoder) readInt(p *int) {
	v := d.I64()
	if int64(int(v)) != v {
		d.Failf("int64 %d overflows int", v)
		v = 0
	}
	*p = int(v)
}

// Bool reads a strict 0/1 byte.
func (d *Decoder) Bool() bool {
	var v bool
	d.readBool(&v)
	return v
}

// readBool is Bool storing through p, the form a Walker calls.
func (d *Decoder) readBool(p *bool) {
	if d.err != nil || d.off >= len(d.data) {
		d.underrun(1)
		*p = false
		return
	}
	b := d.data[d.off]
	if b > 1 {
		d.Failf("invalid bool byte at offset %d", d.off)
	}
	d.off++
	*p = b == 1
}

// Raw reads a length-prefixed byte string.
func (d *Decoder) Raw() []byte {
	n := int(d.U32())
	return d.take(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Raw()) }

// Tag reads a section tag and latches an error when it differs from want.
func (d *Decoder) Tag(want uint32) {
	at := d.off
	got := d.U32()
	if d.err == nil && got != want {
		d.Failf("section tag mismatch at offset %d: got %#x, want %#x", at, got, want)
	}
}

// Count reads a non-negative element count and validates it against an upper
// bound, so a corrupted count cannot drive a multi-gigabyte allocation.
func (d *Decoder) Count(limit int) int {
	n := d.Int()
	if d.err == nil && (n < 0 || n > limit) {
		d.Failf("element count %d outside [0, %d]", n, limit)
		return 0
	}
	return n
}

// castagnoliTable is the CRC32-C polynomial table (same as tracefile's).
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// sealHint is the length of the container Seal produced or Open accepted
// last: the capacity Seal asks the buffer list for next. The snapshots of
// one sweep differ little in size, and a cold run that replaces a snapshot
// that failed to restore seals one of that snapshot's size.
var sealHint atomic.Int64

// Seal frames meta and the payload that write produces into a
// self-validating container:
//
//	magic u32 | version u32 | metaLen u32 | meta | payloadLen u64 | payload | crc32c u32
//
// where the checksum covers every preceding byte. It encodes the header and
// then the payload straight into a buffer from freelist.Artifacts, patching
// the payload length in once write returns, so the container is the only
// buffer the call touches and, when a buffer of the right size has been
// handed back there, nothing is allocated for it. The container belongs to
// the caller, who may hand it back to freelist.Artifacts once done with it.
// write must not retain the encoder.
func Seal(m Meta, write func(*Encoder)) []byte {
	e := Encoder{buf: freelist.Artifacts.Get(int(sealHint.Load()))}
	e.U32(Magic)
	e.U32(Version)
	e.U32(uint32(4 + len(m.Workload) + 5*8))
	e.String(m.Workload)
	e.U64(m.Fingerprint)
	e.U64(m.WarmKey)
	e.I64(m.TraceLen)
	e.U64(m.Committed)
	e.U64(m.Cycle)
	e.U64(0) // payload length, patched below
	start := e.Len()
	write(&e)
	binary.LittleEndian.PutUint64(e.buf[start-8:], uint64(e.Len()-start))
	e.U32(crc32.Checksum(e.buf, castagnoliTable))
	sealHint.Store(int64(e.Len()))
	return e.buf
}

// Open validates the container framing and returns the meta and payload.
// The payload is a sub-slice of data (no copy).
func Open(data []byte) (Meta, []byte, error) {
	var m Meta
	if len(data) < 4 {
		return m, nil, fmt.Errorf("%w: %d bytes is too short for a header", ErrCorrupt, len(data))
	}
	if binary.LittleEndian.Uint32(data) != Magic {
		return m, nil, ErrBadMagic
	}
	if len(data) < 8 {
		return m, nil, fmt.Errorf("%w: truncated before version", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return m, nil, fmt.Errorf("%w: got %d, support %d", ErrBadVersion, v, Version)
	}
	if len(data) < 4+4+4 {
		return m, nil, fmt.Errorf("%w: truncated before checksum", ErrCorrupt)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, castagnoliTable); got != want {
		return m, nil, fmt.Errorf("%w: checksum mismatch (got %#x, want %#x)", ErrCorrupt, got, want)
	}
	d := NewDecoder(body)
	d.U32() // magic, validated above
	d.U32() // version, validated above
	metaRaw := d.Raw()
	md := NewDecoder(metaRaw)
	m.Workload = md.String()
	m.Fingerprint = md.U64()
	m.WarmKey = md.U64()
	m.TraceLen = md.I64()
	m.Committed = md.U64()
	m.Cycle = md.U64()
	if md.Err() != nil {
		return Meta{}, nil, fmt.Errorf("%w: meta block: %v", ErrCorrupt, md.Err())
	}
	if md.Remaining() != 0 {
		return Meta{}, nil, fmt.Errorf("%w: %d trailing bytes in meta block", ErrCorrupt, md.Remaining())
	}
	plen := d.U64()
	if d.Err() != nil {
		return Meta{}, nil, d.Err()
	}
	if plen != uint64(d.Remaining()) {
		return Meta{}, nil, fmt.Errorf("%w: payload length %d disagrees with container (%d bytes remain)",
			ErrCorrupt, plen, d.Remaining())
	}
	payload := body[len(body)-int(plen):]
	sealHint.Store(int64(len(data)))
	return m, payload, nil
}
