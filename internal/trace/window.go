package trace

import (
	"fmt"

	"clgp/internal/isa"
)

// RecordReaderAt is the random-access streaming source a WindowTrace pulls
// records from. tracefile.Reader implements it; any container that can
// serve "fill dst starting at record lo" works.
type RecordReaderAt interface {
	// Len returns the definite total record count of the source.
	Len() int
	// ReadRecordsAt fills dst with records starting at index lo and returns
	// how many were copied; it may return fewer than len(dst) (e.g. at a
	// chunk boundary) but, for a non-empty dst, never zero with a nil
	// error.
	ReadRecordsAt(lo int, dst []Record) (int, error)
}

// DefaultWindowCap is the resident-record cap used when NewWindowTrace is
// given zero: 64K records (~2MB) is far below any paper-scale trace while
// leaving ample slack over the engine's actual pinned span (the in-flight
// window between the commit frontier and the predictor's lookahead, a few
// thousand records for the default configuration).
const DefaultWindowCap = 1 << 16

// MinWindowCap is the smallest accepted cap. The engine pins the records
// between the commit frontier and the prediction cursor plus one maximum
// stream of lookahead; caps below a few thousand records risk deadlocking a
// legal configuration, so tiny values are rejected rather than clamped
// silently.
const MinWindowCap = 2048

// WindowTrace adapts a streaming record source to the engine's trace-source
// contract (core.TraceSource) in bounded memory. It keeps a sliding window
// of resident records covering exactly the engine's access pattern: the
// monotonic prediction-cursor lookahead at the leading edge, plus the
// lagging delivery reads that go back no further than the commit frontier.
// Advance moves the eviction frontier; records behind it are dropped as
// space is needed, and residency never exceeds the configured cap. The
// source decodes outside the window: a tracefile.Reader holds the chunk
// being read and the one it prestages, and none once read to its end.
//
// Reads never rewind behind the frontier: evicted records are gone. Its
// Len is always definite, as core.TraceSource requires: it comes straight
// from the source's footer index.
//
// At panics when asked for an evicted record (a caller bug: reads must stay
// at or above the advanced frontier), when the window is exhausted (the cap
// is too small for the span the engine actually pins — rerun with a larger
// cap), or when the underlying source fails mid-stream (I/O error or a
// corrupt chunk that passed the container's open-time validation). The
// engine has no error path on its per-record hot path, so these abort the
// simulation rather than silently corrupting it.
type WindowTrace struct {
	src      RecordReaderAt
	buf      []Record // the ring: a power of two of at least cap records
	mask     int      // len(buf)-1
	cap      int      // the residency bound
	head     int      // ring position of record `base`
	base     int      // trace index of the first resident record
	n        int      // resident record count
	frontier int      // records below this index may be evicted
	total    int

	// next is the Target of the last record loaded: records enter the
	// window in order, so it is the PC the next loaded record must carry.
	next isa.Addr

	maxResident int
	reads       int64
}

// NewWindowTrace creates a windowed view over src holding at most cap
// records resident; cap 0 selects DefaultWindowCap.
func NewWindowTrace(src RecordReaderAt, cap int) (*WindowTrace, error) {
	if cap == 0 {
		cap = DefaultWindowCap
	}
	if cap < MinWindowCap {
		return nil, fmt.Errorf("trace: window cap %d below minimum %d", cap, MinWindowCap)
	}
	total := src.Len()
	if total < 0 {
		return nil, fmt.Errorf("trace: source reports indefinite length %d", total)
	}
	if total < cap {
		cap = total
		if cap == 0 {
			cap = 1 // keep the ring allocatable for an empty source
		}
	}
	size := 1
	for size < cap {
		size <<= 1
	}
	return &WindowTrace{src: src, buf: make([]Record, size), mask: size - 1, cap: cap, total: total}, nil
}

// Len returns the definite total record count (from the source's index, not
// from what is resident).
func (t *WindowTrace) Len() int { return t.total }

// At returns record i. i must lie in [frontier, Len): reads never go back
// past the advanced commit frontier, and the leading edge grows the window
// on demand (evicting committed records first). Records are checked as they
// enter the window: a PC that is not InstBytes-aligned, or that is not the
// previous record's Target, panics naming the record's index, the same
// conditions MemTrace.Append and Profile reject. Unlike MemTrace, the
// window holds 64-bit addresses.
func (t *WindowTrace) At(i int) Record {
	if i < t.base {
		panic(fmt.Sprintf("trace: record %d already evicted (window is %d..%d, frontier %d)",
			i, t.base, t.base+t.n, t.frontier))
	}
	if i >= t.total {
		panic(fmt.Sprintf("trace: record %d out of range 0..%d", i, t.total))
	}
	for i >= t.base+t.n {
		t.fill()
	}
	return t.buf[(t.head+i-t.base)&t.mask]
}

// Advance moves the eviction frontier: records below frontier have
// committed and will never be read again. The frontier is monotonic;
// regressions are ignored.
func (t *WindowTrace) Advance(frontier int) {
	if frontier > t.frontier {
		t.frontier = frontier
	}
}

// Cap returns the effective resident-record cap (the configured cap,
// clamped down for sources shorter than it).
func (t *WindowTrace) Cap() int { return t.cap }

// MaxResident returns the high-water mark of resident records; it never
// exceeds the configured cap (the bounded-memory contract).
func (t *WindowTrace) MaxResident() int { return t.maxResident }

// SourceReads returns the number of ReadRecordsAt calls issued, for tests
// and throughput reporting.
func (t *WindowTrace) SourceReads() int64 { return t.reads }

// fill evicts committed records and loads the next batch at the leading
// edge.
func (t *WindowTrace) fill() {
	if evict := t.frontier - t.base; evict > 0 {
		if evict > t.n {
			evict = t.n
		}
		t.head = (t.head + evict) & t.mask
		t.base += evict
		t.n -= evict
	}
	free := t.cap - t.n
	if free == 0 {
		panic(fmt.Sprintf("trace: window cap %d exhausted: records %d..%d are pinned above frontier %d; increase the window cap",
			t.cap, t.base, t.base+t.n, t.frontier))
	}
	lo := t.base + t.n
	want := free
	if remaining := t.total - lo; want > remaining {
		want = remaining
	}
	// The ring's free region may wrap; fill the two contiguous spans.
	tail := (t.head + t.n) & t.mask
	firstSpan := want
	if tail+firstSpan > len(t.buf) {
		firstSpan = len(t.buf) - tail
	}
	t.readInto(t.buf[tail:tail+firstSpan], lo)
	if want > firstSpan {
		t.readInto(t.buf[:want-firstSpan], lo+firstSpan)
	}
	t.n += want
	if t.n > t.maxResident {
		t.maxResident = t.n
	}
}

// readInto fills dst completely from the source starting at trace index lo.
func (t *WindowTrace) readInto(dst []Record, lo int) {
	for len(dst) > 0 {
		n, err := t.src.ReadRecordsAt(lo, dst)
		t.reads++
		if err != nil {
			panic(fmt.Sprintf("trace: streaming read at record %d: %v", lo, err))
		}
		if n == 0 {
			panic(fmt.Sprintf("trace: streaming source returned no records at %d", lo))
		}
		for j, r := range dst[:n] {
			if err := checkContinuity(lo+j, r.PC, t.next); err != nil {
				panic(err.Error())
			}
			t.next = r.Target
		}
		dst = dst[n:]
		lo += n
	}
}
