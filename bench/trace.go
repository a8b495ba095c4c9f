package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"clgp/internal/telemetry"
)

// layerTime is one layer's self time over the traced passes.
type layerTime struct {
	SelfMSPerPass float64 `json:"self_ms_per_pass"`
	Share         float64 `json:"share"` // of the traced passes' wall time
}

// phaseLayer maps dispatch's persisted phase spans to the layer doing the
// work: a shard's fetch-trace phase is workload generation, its simulate
// phase the sim worker pool, its commit phase the store write.
var phaseLayer = map[string]string{"fetch-trace": "workload", "simulate": "sim", "commit": "dispatch"}

// layerOf names the layer a span's self time belongs to. The benchmark's
// own spans are named "<package>.<call>"; its pass span is the benchmark's
// glue around the calls.
func layerOf(s telemetry.Span) string {
	switch s.Cat {
	case telemetry.SpanSweep, telemetry.SpanShard, telemetry.SpanAttempt:
		return "dispatch"
	case telemetry.SpanPhase:
		if l, ok := phaseLayer[s.Name]; ok {
			return l
		}
		return "dispatch"
	}
	if pkg, _, ok := strings.Cut(s.Name, "."); ok {
		return pkg
	}
	return "bench"
}

// selfMicros returns each span's duration minus the part of its interval
// its children cover.
func selfMicros(spans []telemetry.Span, children map[string][]int) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		start, end := s.StartMicros, s.StartMicros+s.DurMicros
		var iv [][2]int64
		for _, c := range children[s.ID] {
			cs, ce := max(spans[c].StartMicros, start), min(spans[c].StartMicros+spans[c].DurMicros, end)
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, start
		for _, v := range iv {
			if v[1] <= reach {
				continue
			}
			covered += v[1] - max(v[0], reach)
			reach = v[1]
		}
		self[i] = s.DurMicros - covered
	}
	return self
}

// writeTrace writes <workload>.trace.json (Chrome trace of the benchmark's
// spans with dispatch's stitched under them) and <workload>.layers.json
// (the run record with each layer's self time over the traced passes).
func (b *bench) writeTrace(dir string, rec *runRecord) error {
	spans := append(b.spans.Spans(), b.stitched...)
	children := map[string][]int{}
	byID := map[string]int{}
	for i, s := range spans {
		byID[s.ID] = i
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := selfMicros(spans, children)

	var passUS, dispatchUS float64
	layers := map[string]float64{}
	sweep := false
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		layers[layerOf(s)] += float64(self[i])
		switch {
		case s.Name == "dispatch.Orchestrator.Run":
			sweep = true
		case s.Cat == telemetry.SpanSweep || s.Cat == telemetry.SpanPhase:
			dispatchUS += float64(self[i])
		}
		for _, c := range children[s.ID] {
			walk(c)
		}
	}
	for _, id := range b.passIDs {
		i, ok := byID[id]
		if !ok {
			continue
		}
		passUS += float64(spans[i].DurMicros)
		walk(i)
	}
	passes := float64(len(b.passIDs))
	rec.Layers = map[string]layerTime{}
	for name, us := range layers {
		rec.Layers[name] = layerTime{SelfMSPerPass: us / 1000 / passes, Share: ratio(us, passUS)}
	}
	rec.Coverage = 1 - ratio(layers["bench"], passUS)
	if sweep {
		// The dispatch phases have no children, so their self time is their
		// duration; the sweep span's self time is dispatch.sweep_self_ms.
		rec.Reconcile = ratio(dispatchUS, passUS)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, b.name+".trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, b.name+".layers.json"), append(data, '\n'), 0o644)
}
