// Package tracefile is the on-disk trace container: a chunked binary format
// that persists the committed-path instruction trace of a workload so
// paper-scale (hundreds of millions of records) slices can be recorded once
// and streamed into the engine in bounded memory, instead of being
// regenerated and fully materialised by every run.
//
// File layout:
//
//	header   magic, version, workload fingerprint, generation seed,
//	         slice origin, records-per-chunk, workload name
//	chunks   each chunk is an independently decodable gzip stream of
//	         varint/delta-encoded records (gzip's CRC makes every chunk
//	         self-checking)
//	footer   chunk index: per chunk its file offset, compressed byte
//	         length and record count, plus the total record count
//	trailer  fixed-size pointer to the footer, so a reader seeks straight
//	         to the index without scanning the chunks
//
// Record encoding (per chunk, delta state reset at each chunk boundary so
// chunks decode independently):
//
//	flags byte  taken | has-mem | seq-next (Target == PC+4) |
//	            cont-PC (PC == previous record's Target)
//	PC          omitted when cont-PC, else signed varint delta from the
//	            previous record's Target
//	Target      omitted when seq-next, else signed varint delta from PC
//	EffAddr     present only for memory records, signed varint delta from
//	            the previous memory record's EffAddr
//
// On the sequential correct path almost every record costs one flags byte
// plus an occasional short delta, so files run well under two bytes per
// record before compression.
//
// The header's workload fingerprint (workload.Fingerprint: the program-image
// hash folded with every walk parameter of the generating profile) ties the
// trace to the exact generation it was captured from: consumers that rebuild
// the image from (workload, seed) verify the fingerprint before simulating,
// so a trace can never silently drive the wrong program — or the right
// program with retuned walk parameters.
package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	// Magic identifies a CLGP trace container ("CLGT" little-endian).
	Magic uint32 = 0x54474c43
	// Version is the container format version understood by this package.
	Version uint32 = 1

	// DefaultChunkRecords is the records-per-chunk used when Options leaves
	// it zero: 64K records decode to ~2MB, large enough to compress well and
	// small enough that a Reader mid-scan, which holds the chunk it reads
	// and the one it prestages, stays at a few megabytes.
	DefaultChunkRecords = 1 << 16

	// maxNameLen bounds the workload name stored in the header.
	maxNameLen = 1<<16 - 1

	// trailerLen is the fixed byte length of the trailer: footer offset
	// (u64), footer length (u32), magic (u32).
	trailerLen = 16

	// headerFixedLen is the byte length of the header before the name:
	// magic (u32), version (u32), fingerprint (u64), seed (i64),
	// origin (u64), chunk records (u32), name length (u16).
	headerFixedLen = 4 + 4 + 8 + 8 + 8 + 4 + 2
)

// Record flag bits.
const (
	flagTaken   = 1 << 0 // conditional branch (or unconditional control) taken
	flagHasMem  = 1 << 1 // record carries an effective data address
	flagSeqNext = 1 << 2 // Target is PC+InstBytes and therefore omitted
	flagContPC  = 1 << 3 // PC equals the previous record's Target and is omitted
)

var (
	// ErrBadMagic is returned when a file is not a CLGP trace container.
	ErrBadMagic = errors.New("tracefile: bad magic number")
	// ErrBadVersion is returned for an unsupported container version.
	ErrBadVersion = errors.New("tracefile: unsupported version")
	// ErrCorrupt is wrapped by errors reporting a structurally invalid file
	// (truncated chunks, inconsistent index, undecodable records).
	ErrCorrupt = errors.New("tracefile: corrupt trace file")
)

// Options parameterise a Writer.
type Options struct {
	// Workload is the workload (profile) name stored in the header.
	Workload string
	// Fingerprint is the workload fingerprint (workload.Fingerprint) the
	// trace was captured from; zero means "unknown generation".
	Fingerprint uint64
	// Seed is the workload generation seed, stored so a reader can rebuild
	// the program image without out-of-band information.
	Seed int64
	// Origin is the trace index (within the full generation) of the
	// container's first record: 0 for a trace recorded from the start, the
	// interval start for a SimPoint-style slice. Consumers that promise
	// parity with regenerating the workload from record 0 must reject a
	// non-zero origin — the records are real but describe a different
	// interval than (workload, insts, seed) regenerates.
	Origin int
	// ChunkRecords is the number of records per chunk; 0 selects
	// DefaultChunkRecords.
	ChunkRecords int
}

// chunkInfo is one footer index entry.
type chunkInfo struct {
	offset uint64 // file offset of the chunk's gzip stream
	length uint32 // compressed byte length
	count  uint32 // records in the chunk
}

// encodeHeader renders the file header.
func encodeHeader(opts Options) ([]byte, error) {
	if len(opts.Workload) > maxNameLen {
		return nil, fmt.Errorf("tracefile: workload name %d bytes long, max %d", len(opts.Workload), maxNameLen)
	}
	if opts.ChunkRecords <= 0 {
		return nil, fmt.Errorf("tracefile: chunk records must be positive, got %d", opts.ChunkRecords)
	}
	if opts.Origin < 0 {
		return nil, fmt.Errorf("tracefile: negative slice origin %d", opts.Origin)
	}
	buf := make([]byte, 0, headerFixedLen+len(opts.Workload))
	buf = binary.LittleEndian.AppendUint32(buf, Magic)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint64(buf, opts.Fingerprint)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(opts.Seed))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(opts.Origin))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(opts.ChunkRecords))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(opts.Workload)))
	buf = append(buf, opts.Workload...)
	return buf, nil
}

// decodeHeader parses the file header.
func decodeHeader(buf []byte) (Options, int, error) {
	if len(buf) < headerFixedLen {
		return Options{}, 0, fmt.Errorf("%w: header truncated (%d bytes)", ErrCorrupt, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != Magic {
		return Options{}, 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != Version {
		return Options{}, 0, fmt.Errorf("%w: file version %d, this build understands %d", ErrBadVersion, v, Version)
	}
	opts := Options{
		Fingerprint:  binary.LittleEndian.Uint64(buf[8:16]),
		Seed:         int64(binary.LittleEndian.Uint64(buf[16:24])),
		Origin:       int(binary.LittleEndian.Uint64(buf[24:32])),
		ChunkRecords: int(binary.LittleEndian.Uint32(buf[32:36])),
	}
	nameLen := int(binary.LittleEndian.Uint16(buf[36:38]))
	if len(buf) < headerFixedLen+nameLen {
		return Options{}, 0, fmt.Errorf("%w: header name truncated", ErrCorrupt)
	}
	opts.Workload = string(buf[headerFixedLen : headerFixedLen+nameLen])
	if opts.ChunkRecords <= 0 {
		return Options{}, 0, fmt.Errorf("%w: non-positive chunk record count %d", ErrCorrupt, opts.ChunkRecords)
	}
	if opts.Origin < 0 {
		return Options{}, 0, fmt.Errorf("%w: negative slice origin %d", ErrCorrupt, opts.Origin)
	}
	return opts, headerFixedLen + nameLen, nil
}

// encodeFooter renders the chunk index.
func encodeFooter(index []chunkInfo, total uint64) []byte {
	buf := make([]byte, 0, 4+16*len(index)+8)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(index)))
	for _, ci := range index {
		buf = binary.LittleEndian.AppendUint64(buf, ci.offset)
		buf = binary.LittleEndian.AppendUint32(buf, ci.length)
		buf = binary.LittleEndian.AppendUint32(buf, ci.count)
	}
	buf = binary.LittleEndian.AppendUint64(buf, total)
	return buf
}

// decodeFooter parses the chunk index.
func decodeFooter(buf []byte) ([]chunkInfo, uint64, error) {
	if len(buf) < 4+8 {
		return nil, 0, fmt.Errorf("%w: footer truncated (%d bytes)", ErrCorrupt, len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	want := 4 + 16*n + 8
	if n < 0 || len(buf) != want {
		return nil, 0, fmt.Errorf("%w: footer holds %d bytes for %d chunks, want %d", ErrCorrupt, len(buf), n, want)
	}
	index := make([]chunkInfo, n)
	off := 4
	for i := range index {
		index[i].offset = binary.LittleEndian.Uint64(buf[off : off+8])
		index[i].length = binary.LittleEndian.Uint32(buf[off+8 : off+12])
		index[i].count = binary.LittleEndian.Uint32(buf[off+12 : off+16])
		off += 16
	}
	total := binary.LittleEndian.Uint64(buf[off : off+8])
	return index, total, nil
}

// encodeTrailer renders the fixed-size trailer pointing at the footer.
func encodeTrailer(footerOffset uint64, footerLen uint32) []byte {
	buf := make([]byte, 0, trailerLen)
	buf = binary.LittleEndian.AppendUint64(buf, footerOffset)
	buf = binary.LittleEndian.AppendUint32(buf, footerLen)
	buf = binary.LittleEndian.AppendUint32(buf, Magic)
	return buf
}

// decodeTrailer parses the trailer.
func decodeTrailer(buf []byte) (footerOffset uint64, footerLen uint32, err error) {
	if len(buf) != trailerLen {
		return 0, 0, fmt.Errorf("%w: trailer truncated (%d bytes)", ErrCorrupt, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[12:16]) != Magic {
		return 0, 0, ErrBadMagic
	}
	return binary.LittleEndian.Uint64(buf[0:8]), binary.LittleEndian.Uint32(buf[8:12]), nil
}
