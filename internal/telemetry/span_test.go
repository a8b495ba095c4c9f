package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestSpanRecorderRoundTrip covers the recorder and the JSONL store form:
// begin/end produce scoped IDs and parent links, and EncodeSpans/ParseSpans
// round-trip losslessly.
func TestSpanRecorderRoundTrip(t *testing.T) {
	rec := NewSpanRecorder("shard-000")
	root := rec.Begin(SpanAttempt, "shard-000#1", "shard-000", "sweep:2")
	child := rec.Begin(SpanPhase, "simulate", "shard-000", root.ID())
	child.End()
	open := rec.Begin(SpanPhase, "commit", "shard-000", root.ID())
	root.End()

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Completion order: child ended first.
	if spans[0].Name != "simulate" || spans[1].Name != "shard-000#1" {
		t.Fatalf("unexpected order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if !strings.HasPrefix(spans[0].ID, "shard-000:") {
		t.Errorf("span ID %q not scope-prefixed", spans[0].ID)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("child parent %q != root id %q", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != "sweep:2" {
		t.Errorf("root parent %q, want sweep:2", spans[1].Parent)
	}
	if spans[0].StartMicros == 0 {
		t.Error("span start not stamped")
	}

	// An open span is written with its progress mark; closed spans carry
	// none.
	marked := open.Marked(Mark{JobsDone: 3, JobsTotal: 8, Host: "w1"})
	if marked.Mark == nil || marked.Mark.Micros < marked.StartMicros || marked.Mark.JobsDone != 3 {
		t.Fatalf("open span mark %+v", marked.Mark)
	}
	if spans[0].Mark != nil || spans[1].Mark != nil {
		t.Error("closed spans carry a progress mark")
	}
	spans = append(spans, marked)

	data, err := EncodeSpans(spans)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := ParseSpans(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(back) != len(spans) {
		t.Fatalf("round-trip length %d, want %d", len(back), len(spans))
	}
	for i := range spans {
		if !reflect.DeepEqual(back[i], spans[i]) {
			t.Errorf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, back[i], spans[i])
		}
	}
	// Blank lines in stored data are tolerated.
	padded := append([]byte("\n"), data...)
	if _, err := ParseSpans(padded); err != nil {
		t.Errorf("parse with blank line: %v", err)
	}
}

// TestSpanRecorderNil verifies the nil-safety contract call sites rely on:
// a nil recorder and its nil handles are inert.
func TestSpanRecorderNil(t *testing.T) {
	var rec *SpanRecorder
	sp := rec.Begin(SpanPhase, "x", "lane", "")
	if sp != nil {
		t.Fatalf("nil recorder returned non-nil span")
	}
	if got := sp.ID(); got != "" {
		t.Errorf("nil span ID %q, want empty", got)
	}
	sp.End() // must not panic
	if got := sp.Marked(Mark{}); got.Mark != nil {
		t.Errorf("nil span Marked() = %+v, want the zero span", got)
	}
	if got := rec.Spans(); got != nil {
		t.Errorf("nil recorder Spans() = %v, want nil", got)
	}
}

// TestWriteChromeTrace validates the exported file against the Chrome
// trace-event format: a top-level traceEvents array, "M" metadata naming
// the process and one thread per lane (sweep first), and one "X" complete
// event per span with microsecond ts/dur and id/parent args.
func TestWriteChromeTrace(t *testing.T) {
	spans := []Span{
		{Name: "sweep", Cat: SpanSweep, Lane: "sweep", ID: "sweep:1", StartMicros: 1000, DurMicros: 5000},
		{Name: "shard-001", Cat: SpanShard, Lane: "shard-001", ID: "sweep:3", Parent: "sweep:1", StartMicros: 1200, DurMicros: 2000},
		{Name: "shard-000", Cat: SpanShard, Lane: "shard-000", ID: "sweep:2", Parent: "sweep:1", StartMicros: 1100, DurMicros: 3000},
		{Name: "simulate", Cat: SpanPhase, Lane: "shard-000", ID: "shard-000:1", Parent: "sweep:2", StartMicros: 1150, DurMicros: 0},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatalf("write: %v", err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	// 1 process_name + 3 thread_name metadata + 4 complete events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(doc.TraceEvents))
	}

	tids := map[string]int{}
	var completes int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tids[ev.Args["name"]] = ev.TID
			}
		case "X":
			completes++
			if ev.TS == 0 {
				t.Errorf("complete event %q has zero ts", ev.Name)
			}
			if ev.Dur < 1 {
				t.Errorf("complete event %q has dur %d, want >= 1", ev.Name, ev.Dur)
			}
			if ev.Args["id"] == "" {
				t.Errorf("complete event %q missing id arg", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if completes != len(spans) {
		t.Errorf("%d complete events, want %d", completes, len(spans))
	}
	// Sweep lane is track 0; shard lanes follow in sorted order.
	if tids["sweep"] != 0 || tids["shard-000"] != 1 || tids["shard-001"] != 2 {
		t.Errorf("lane tids %v, want sweep=0 shard-000=1 shard-001=2", tids)
	}
	// The zero-duration span is clamped, and parents are carried in args.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "simulate" {
			if ev.Dur != 1 {
				t.Errorf("zero-duration span exported dur %d, want clamped 1", ev.Dur)
			}
			if ev.Args["parent"] != "sweep:2" {
				t.Errorf("simulate parent arg %q, want sweep:2", ev.Args["parent"])
			}
			if ev.TID != tids["shard-000"] {
				t.Errorf("simulate on tid %d, want shard-000's %d", ev.TID, tids["shard-000"])
			}
		}
	}
}
