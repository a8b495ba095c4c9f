package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"clgp/internal/telemetry"
)

// TestSweepSpansRecorded runs an in-process sweep and checks the span
// trace it commits: a sweep root, one shard span and one attempt span per
// shard from the orchestrator, closed phases (fetch-trace, simulate,
// commit) from each shard's own span log, parented under their attempt,
// and a Chrome-trace export that stitches them all.
func TestSweepSpansRecorded(t *testing.T) {
	specs := testGrid(t)
	st := NewDirStore(t.TempDir())
	o := &Orchestrator{Store: st, Workers: 2}
	out, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}

	spans, err := CollectSweepSpans(st, out.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	byCat := map[string][]telemetry.Span{}
	byID := map[string]telemetry.Span{}
	for _, s := range spans {
		byCat[s.Cat] = append(byCat[s.Cat], s)
		byID[s.ID] = s
	}
	if len(byCat[telemetry.SpanSweep]) != 1 {
		t.Fatalf("%d sweep spans, want 1", len(byCat[telemetry.SpanSweep]))
	}
	if len(byCat[telemetry.SpanShard]) != 2 || len(byCat[telemetry.SpanAttempt]) != 2 {
		t.Fatalf("got %d shard / %d attempt spans, want 2 / 2",
			len(byCat[telemetry.SpanShard]), len(byCat[telemetry.SpanAttempt]))
	}
	phases := map[string]int{}
	for _, s := range byCat[telemetry.SpanPhase] {
		phases[s.Name]++
	}
	for _, want := range []string{"fetch-trace", "simulate", "commit"} {
		if phases[want] != 2 {
			t.Errorf("%d %q phase spans, want one per shard (2); phases: %v",
				phases[want], want, phases)
		}
	}
	// Each shard's phases come from its own span log, closed; the sweep log
	// holds none.
	for _, sp := range out.Manifest.Shards {
		data, err := st.LoadSpans(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		own, err := telemetry.ParseSpans(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(own) != 3 {
			t.Errorf("%s span log holds %d spans, want its 3 phases", sp.Name, len(own))
		}
		for _, s := range own {
			if s.Cat != telemetry.SpanPhase || s.Lane != sp.Name || s.Mark != nil {
				t.Errorf("%s span log holds %+v, want closed phases on its lane", sp.Name, s)
			}
		}
	}
	data, err := st.LoadSpans(SweepSpansName)
	if err != nil {
		t.Fatal(err)
	}
	own, err := telemetry.ParseSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range own {
		if s.Cat == telemetry.SpanPhase {
			t.Errorf("sweep span log holds phase %+v", s)
		}
	}
	// Every non-root span's parent must resolve, all the way up to the
	// sweep root.
	for _, s := range spans {
		if s.Cat == telemetry.SpanSweep {
			if s.Parent != "" {
				t.Errorf("sweep span has parent %q", s.Parent)
			}
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %s (%s %q) has unresolved parent %q", s.ID, s.Cat, s.Name, s.Parent)
		}
	}

	var buf bytes.Buffer
	if err := ExportChromeTrace(&buf, st, out.Manifest); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("exported trace has no events")
	}
}

// TestStoreSpansRoundTrip covers the span persistence contract on both
// store backends: absent objects wrap os.ErrNotExist, writes round-trip,
// and ClearShards removes span objects with the rest of the checkpoint.
func TestStoreSpansRoundTrip(t *testing.T) {
	stores := map[string]Store{
		"dir":    NewDirStore(t.TempDir()),
		"object": newTestObjectStore(t),
	}
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			if _, err := st.LoadSpans("shard-000"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("missing spans error = %v, want os.ErrNotExist", err)
			}
			rec := telemetry.NewSpanRecorder("shard-000")
			rec.Begin(telemetry.SpanPhase, "simulate", "shard-000", "sweep:1").End()
			writeSpans(st, "shard-000", rec.Spans(), nil)
			data, err := st.LoadSpans("shard-000")
			if err != nil {
				t.Fatal(err)
			}
			spans, err := telemetry.ParseSpans(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) != 1 || spans[0].Name != "simulate" {
				t.Fatalf("round-trip spans %+v", spans)
			}
			if err := st.ClearShards(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.LoadSpans("shard-000"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("spans survived ClearShards: err = %v", err)
			}
		})
	}
}
