package dispatch

import (
	"errors"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"clgp/internal/telemetry"
)

// The span log is the one thing a running shard writes while it works: each
// lease records its phase spans (fetch-trace, simulate, commit) into its own
// recorder and commits them as spans/<shard>.jsonl, once at lease start,
// every progressInterval while it runs and once at the end. Mid-lease
// writes carry the open phase span with its latest progress Mark (the
// OpenTelemetry span-event model), so the orchestrator, or `clgpsim
// figures -progress` on another machine, reads per-shard state, rate and
// staleness from nothing but the store. The final write holds closed spans
// only.
//
// The object is rewritten whole rather than appended: both backends commit
// objects atomically (temp+rename / hash-verified PUT), so it is always a
// valid JSONL object and a worker killed mid-write leaves the previous
// write intact, never a torn line. Its size is bounded by the three phases
// whatever the shard's length.
const (
	// SpansDir is the store subdirectory (and key prefix) span objects
	// live under: one JSONL object per recording process.
	SpansDir = "spans"
	// SweepSpansName is the span-object name the orchestrator writes its
	// own spans (sweep, shard, attempt) under; shard leases write theirs
	// under their shard name.
	SweepSpansName = "sweep"

	// progressInterval is the period of a running shard's span-log writes.
	progressInterval = 2 * time.Second
	// defaultStallAfter is how stale a running shard's latest mark may get
	// before it reads stalled, when no stall-after is configured.
	defaultStallAfter = 3 * progressInterval
)

// writeSpans commits spans to the store under name and reports whether it
// did. Spans are advisory, so failures are logged and swallowed: a sweep
// must never fail because its trace or progress could not be saved. An
// empty list writes nothing.
func writeSpans(st Store, name string, spans []telemetry.Span, logger *slog.Logger) bool {
	if len(spans) == 0 {
		return false
	}
	data, err := telemetry.EncodeSpans(spans)
	if err == nil {
		err = st.WriteSpans(name, data)
	}
	if err != nil {
		if logger != nil {
			logger.Warn("span write failed", "name", name, "err", err)
		}
		return false
	}
	return true
}

// shardLog is the span log of one shard lease: its own recorder, the open
// phase span and that span's progress mark, kept current in the store by a
// writer goroutine.
type shardLog struct {
	st     Store
	sp     ShardPlan
	parent string
	rec    *telemetry.SpanRecorder
	log    *slog.Logger

	mu   sync.Mutex
	open *telemetry.ActiveSpan
	mark telemetry.Mark

	stop chan struct{}
	done chan struct{}
}

// startShardLog opens a lease of shard sp on host in its fetch-trace phase,
// parented under the attempt span parent, and commits the first mark so
// readers see the lease before any job completes. logger nil is silent.
func startShardLog(st Store, sp ShardPlan, host, parent string, logger *slog.Logger) *shardLog {
	l := &shardLog{
		st: st, sp: sp, parent: parent,
		rec:  telemetry.NewSpanRecorder(sp.Name),
		log:  logger,
		mark: telemetry.Mark{JobsTotal: len(sp.Specs), Host: host},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	l.phase("fetch-trace")
	l.write()
	go l.loop()
	return l
}

func (l *shardLog) loop() {
	defer close(l.done)
	t := time.NewTicker(progressInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.write()
		}
	}
}

// phase ends the open phase span and opens the next one.
func (l *shardLog) phase(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.open.End()
	l.open = l.rec.Begin(telemetry.SpanPhase, name, l.sp.Name, l.parent)
}

// jobDone records one completed job; the new count rides the next write.
func (l *shardLog) jobDone() {
	l.mu.Lock()
	l.mark.JobsDone++
	l.mu.Unlock()
}

// write commits the closed spans plus the open one, marked now.
func (l *shardLog) write() {
	l.mu.Lock()
	spans := l.rec.Spans()
	if l.open != nil {
		spans = append(spans, l.open.Marked(l.mark))
	}
	l.mu.Unlock()
	if writeSpans(l.st, l.sp.Name, spans, l.log) {
		mProgressWrites.Inc()
	}
}

// close stops the periodic writes, ends the open phase and commits the
// closed spans.
func (l *shardLog) close() {
	close(l.stop)
	<-l.done
	l.mu.Lock()
	l.open.End()
	l.open = nil
	l.mu.Unlock()
	l.write()
}

// ShardStatus is one row of a sweep progress report, derived from the
// manifest, the shard-result objects and the shards' span logs.
type ShardStatus struct {
	// ID and Name identify the shard.
	ID   int
	Name string
	// State is "pending" (no open lease seen), "running", "stalled" (an
	// open lease whose latest mark is stale) or "done" (results committed).
	State string
	// JobsDone / JobsTotal is the last reported progress.
	JobsDone, JobsTotal int
	// Host is the host holding the open lease.
	Host string
	// Age is the age of the open lease's latest mark (zero when pending
	// or done).
	Age time.Duration
	// ETA estimates time to completion from the job rate since the open
	// phase span started (zero when unknown).
	ETA time.Duration
}

// SweepProgress derives the per-shard progress report for a sweep at time
// now. A shard whose open span's latest mark is older than stallAfter
// (defaultStallAfter when not positive) reports "stalled" — the early
// dead-worker signal the orchestrator surfaces before the retry timeout
// fires. The function only reads the store, so it works from any machine
// and is driven by a caller-supplied clock in tests.
func SweepProgress(st Store, m *Manifest, now time.Time, stallAfter time.Duration) ([]ShardStatus, error) {
	if stallAfter <= 0 {
		stallAfter = defaultStallAfter
	}
	statuses := make([]ShardStatus, len(m.Shards))
	for i, sp := range m.Shards {
		s := ShardStatus{ID: sp.ID, Name: sp.Name, JobsTotal: len(sp.Specs), State: "pending"}
		done, err := st.ShardComplete(sp)
		if err != nil {
			return nil, err
		}
		if done {
			s.State, s.JobsDone = "done", s.JobsTotal
			statuses[i] = s
			continue
		}
		open, err := openSpan(st, sp)
		if err != nil {
			return nil, err
		}
		if open != nil {
			mk := open.Mark
			s.JobsDone, s.JobsTotal, s.Host = mk.JobsDone, mk.JobsTotal, mk.Host
			s.Age = now.Sub(time.UnixMicro(mk.Micros))
			s.State = "running"
			if s.Age > stallAfter {
				s.State = "stalled"
			}
			s.ETA = estimateETA(*open, now)
		}
		statuses[i] = s
	}
	return statuses, nil
}

// openSpan returns the marked (still open) span of a shard's span log, or
// nil when no lease is underway.
func openSpan(st Store, sp ShardPlan) (*telemetry.Span, error) {
	data, err := st.LoadSpans(sp.Name)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	spans, err := telemetry.ParseSpans(data)
	if err != nil {
		return nil, err
	}
	for i := range spans {
		if spans[i].Mark != nil {
			return &spans[i], nil
		}
	}
	return nil, nil
}

// estimateETA projects remaining work from the jobs done since the open
// span started.
func estimateETA(open telemetry.Span, now time.Time) time.Duration {
	mk := open.Mark
	remaining := mk.JobsTotal - mk.JobsDone
	elapsed := now.Sub(time.UnixMicro(open.StartMicros))
	if remaining <= 0 || mk.JobsDone == 0 || elapsed <= 0 {
		return 0
	}
	rate := float64(mk.JobsDone) / elapsed.Seconds()
	return time.Duration(float64(remaining)/rate) * time.Second
}

// CollectSweepSpans loads every span object of a sweep — the orchestrator's
// plus one per shard — and returns the combined spans. Absent objects are
// skipped (a shard may not have been leased yet, or a best-effort write may
// have failed); any other load or parse error is returned.
func CollectSweepSpans(st Store, m *Manifest) ([]telemetry.Span, error) {
	names := []string{SweepSpansName}
	for _, sp := range m.Shards {
		names = append(names, sp.Name)
	}
	var spans []telemetry.Span
	for _, name := range names {
		data, err := st.LoadSpans(name)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		parsed, err := telemetry.ParseSpans(data)
		if err != nil {
			return nil, err
		}
		spans = append(spans, parsed...)
	}
	return spans, nil
}

// ExportChromeTrace writes the sweep's combined spans to w as a
// Chrome-trace-event JSON document (see telemetry.WriteChromeTrace).
func ExportChromeTrace(w io.Writer, st Store, m *Manifest) error {
	spans, err := CollectSweepSpans(st, m)
	if err != nil {
		return err
	}
	return telemetry.WriteChromeTrace(w, spans)
}
