package telemetry

// Snapshot is the per-run engine telemetry folded into stats.Results. The
// counters are plain uint64s written by a single goroutine (the engine's
// run loop) — no atomics needed — and copied out once per run, so
// instrumentation costs one integer add per event.
//
// Unlike the architectural counters in stats.Results, these values are
// mode-dependent implementation facts: skipped cycles and fast-forward
// jumps depend on the clock mode, and the window fields exist only when the
// engine runs over a streaming trace window. Cross-mode equivalence checks
// therefore compare stats.Results.WithoutTelemetry().
type Snapshot struct {
	// Cycles is the total simulated cycle count, including skipped spans.
	Cycles uint64 `json:"cycles"`
	// SkippedCycles counts cycles elided by the next-event clock.
	SkippedCycles uint64 `json:"skipped_cycles"`
	// FastForwards counts distinct next-event jumps taken.
	FastForwards uint64 `json:"fast_forwards"`
	// WrongPathProduced is kept for readers of the JSON record; the engine
	// no longer has a wrong-path production fast path, so it stays 0.
	WrongPathProduced uint64 `json:"wrong_path_produced"`
	// WrongPathFetched counts wrong-path instructions actually fetched.
	WrongPathFetched uint64 `json:"wrong_path_fetched"`
	// PrefetchesIssued counts prefetches issued to the hierarchy.
	PrefetchesIssued uint64 `json:"prefetches_issued"`
	// PrefetchesCancelled counts in-flight prefetches cancelled on
	// misprediction recovery.
	PrefetchesCancelled uint64 `json:"prefetches_cancelled"`

	// WindowMaxResident is the high-water mark of records resident in the
	// streaming trace window (0 for in-memory traces).
	WindowMaxResident int `json:"window_max_resident,omitempty"`
	// WindowCap is the configured window capacity (0 for in-memory traces).
	WindowCap int `json:"window_cap,omitempty"`
	// WindowSourceReads counts records decoded from the underlying source
	// (0 for in-memory traces).
	WindowSourceReads int64 `json:"window_source_reads,omitempty"`
}

// Merge accumulates another snapshot into s: counters sum, window
// high-water marks take the max. Used when aggregating per-job snapshots
// into a sweep-level record.
func (s *Snapshot) Merge(o Snapshot) {
	s.Cycles += o.Cycles
	s.SkippedCycles += o.SkippedCycles
	s.FastForwards += o.FastForwards
	s.WrongPathProduced += o.WrongPathProduced
	s.WrongPathFetched += o.WrongPathFetched
	s.PrefetchesIssued += o.PrefetchesIssued
	s.PrefetchesCancelled += o.PrefetchesCancelled
	if o.WindowMaxResident > s.WindowMaxResident {
		s.WindowMaxResident = o.WindowMaxResident
	}
	if o.WindowCap > s.WindowCap {
		s.WindowCap = o.WindowCap
	}
	s.WindowSourceReads += o.WindowSourceReads
}
