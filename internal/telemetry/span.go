package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span categories, from the top of the sweep hierarchy down. A sweep span
// contains shard spans, a shard span contains one attempt span per lease,
// and an attempt span contains the worker-side phase spans (fetch-trace,
// simulate, commit). Parent IDs tie the levels together across process
// boundaries: the orchestrator threads the attempt span's ID to the worker,
// which parents its phases under it.
const (
	// SpanSweep is the whole orchestrator run.
	SpanSweep = "sweep"
	// SpanShard is one shard's lifetime across all its leases.
	SpanShard = "shard"
	// SpanAttempt is one lease of a shard (retries add more).
	SpanAttempt = "attempt"
	// SpanPhase is one worker-side execution phase of an attempt.
	SpanPhase = "phase"
)

// Span is one timed operation of a sweep. Spans are persisted as JSONL
// objects through the dispatch store (one object per recording process) and
// stitched into a single Chrome-trace-event file by the export side; Lane
// names the Perfetto track the span renders on. A span written while still
// open carries a Mark; completed spans never do.
type Span struct {
	// Name is the human label ("simulate", "shard-000#1", ...).
	Name string `json:"name"`
	// Cat is the hierarchy level (SpanSweep, SpanShard, SpanAttempt,
	// SpanPhase).
	Cat string `json:"cat"`
	// Lane is the trace track the span belongs to: "sweep" for orchestrator
	// spans, the shard name for everything belonging to that shard.
	Lane string `json:"lane"`
	// ID identifies the span; unique within a sweep (scope-prefixed).
	ID string `json:"id"`
	// Parent is the enclosing span's ID; empty for the root sweep span.
	Parent string `json:"parent,omitempty"`
	// StartMicros is the span's start as Unix microseconds.
	StartMicros int64 `json:"start_us"`
	// DurMicros is the span's duration in microseconds (so far, on an open
	// span).
	DurMicros int64 `json:"dur_us"`
	// Mark is the latest progress of a span written while still open; nil
	// once the span has ended.
	Mark *Mark `json:"mark,omitempty"`
}

// Mark is a progress event on an open span: when it was taken, how far the
// span's work had got, and which host was doing it.
type Mark struct {
	// Micros is the mark's time as Unix microseconds.
	Micros int64 `json:"at_us"`
	// JobsDone / JobsTotal is the progress at mark time.
	JobsDone  int `json:"jobs_done"`
	JobsTotal int `json:"jobs_total"`
	// Host labels the host doing the span's work.
	Host string `json:"host,omitempty"`
}

// SpanRecorder collects the completed spans of one process — the
// orchestrator or a worker. It is safe for concurrent use; a nil recorder
// is valid and records nothing, so call sites need no conditionals.
type SpanRecorder struct {
	scope string
	mu    sync.Mutex
	seq   uint64
	spans []Span
}

// NewSpanRecorder returns a recorder whose span IDs are prefixed with scope
// ("sweep", or a shard name), keeping IDs unique across the processes of
// one sweep.
func NewSpanRecorder(scope string) *SpanRecorder {
	return &SpanRecorder{scope: scope}
}

// ActiveSpan is a started, not yet ended span. A nil ActiveSpan (from a nil
// recorder) is valid: ID returns "" and End is a no-op.
type ActiveSpan struct {
	rec   *SpanRecorder
	span  Span
	start time.Time
}

// Begin starts a span and returns its handle; End completes and records it.
// A nil recorder returns a nil handle.
func (r *SpanRecorder) Begin(cat, name, lane, parent string) *ActiveSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("%s:%d", r.scope, r.seq)
	r.mu.Unlock()
	now := time.Now()
	return &ActiveSpan{
		rec: r,
		span: Span{
			Name: name, Cat: cat, Lane: lane, ID: id, Parent: parent,
			StartMicros: now.UnixMicro(),
		},
		start: now,
	}
}

// ID returns the span's ID for parenting children; "" on a nil handle.
func (a *ActiveSpan) ID() string {
	if a == nil {
		return ""
	}
	return a.span.ID
}

// Marked returns the span as it stands while still open, stamped now with
// mark m (whose Micros it sets) and its duration so far. The zero Span on a
// nil handle.
func (a *ActiveSpan) Marked(m Mark) Span {
	if a == nil {
		return Span{}
	}
	now := time.Now()
	s := a.span
	s.DurMicros = now.Sub(a.start).Microseconds()
	m.Micros = now.UnixMicro()
	s.Mark = &m
	return s
}

// End completes the span and records it. No-op on a nil handle.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.span.DurMicros = time.Since(a.start).Microseconds()
	a.rec.mu.Lock()
	a.rec.spans = append(a.rec.spans, a.span)
	a.rec.mu.Unlock()
}

// Spans returns a snapshot of the recorded spans, in completion order. Nil
// recorders return nil.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// EncodeSpans renders spans in the on-store JSONL form (one JSON object per
// line).
func EncodeSpans(spans []Span) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return nil, fmt.Errorf("telemetry: encoding span %s: %w", s.ID, err)
		}
	}
	return buf.Bytes(), nil
}

// ParseSpans decodes span JSONL bytes (blank lines are skipped).
func ParseSpans(data []byte) ([]Span, error) {
	var spans []Span
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("telemetry: span record %d: %w", len(spans), err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading spans: %w", err)
	}
	return spans, nil
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events plus "M" metadata; timestamps and durations in microseconds), the
// JSON that chrome://tracing and Perfetto open directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans as a Chrome-trace-event JSON document
// (open it in Perfetto or chrome://tracing). Every distinct lane becomes a
// named thread track — "sweep" first, the rest in sorted order — and every
// span an "X" complete event carrying its ID and parent in args, so the
// sweep → shard → attempt → phase hierarchy stays inspectable in the UI.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	lanes := make(map[string]int)
	var names []string
	for _, s := range spans {
		if _, ok := lanes[s.Lane]; !ok {
			lanes[s.Lane] = 0
			names = append(names, s.Lane)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		// The sweep lane reads first in the UI; shard lanes sort by name.
		if names[i] == SpanSweep {
			return names[j] != SpanSweep
		}
		if names[j] == SpanSweep {
			return false
		}
		return names[i] < names[j]
	})
	for i, name := range names {
		lanes[name] = i
	}

	const pid = 1
	events := make([]chromeEvent, 0, len(spans)+len(names)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]string{"name": "clgpsim sweep"},
	})
	for _, name := range names {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: lanes[name],
			Args: map[string]string{"name": name},
		})
	}
	for _, s := range spans {
		dur := s.DurMicros
		if dur < 1 {
			dur = 1 // zero-length spans stay visible and valid
		}
		args := map[string]string{"id": s.ID}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: s.StartMicros, Dur: dur,
			PID: pid, TID: lanes[s.Lane],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
