package dispatch

import (
	"bytes"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clgp/internal/telemetry"
)

// TestProgressWritesOverStores drives a lease's span log against both
// store backends and checks each committed object: the initial mark at
// lease start, progress carried on a later write, and closed spans only
// after the end.
func TestProgressWritesOverStores(t *testing.T) {
	stores := map[string]Store{
		"dir":    NewDirStore(t.TempDir()),
		"object": newTestObjectStore(t),
	}
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			m, err := NewManifest(testGrid(t), 2)
			if err != nil {
				t.Fatal(err)
			}
			sp := m.Shards[0]
			load := func() []telemetry.Span {
				t.Helper()
				data, err := st.LoadSpans(sp.Name)
				if err != nil {
					t.Fatal(err)
				}
				spans, err := telemetry.ParseSpans(data)
				if err != nil {
					t.Fatal(err)
				}
				return spans
			}

			log := startShardLog(st, sp, "test-host", "sweep:3", nil)
			spans := load()
			if len(spans) != 1 || spans[0].Name != "fetch-trace" || spans[0].Mark == nil {
				t.Fatalf("lease start wrote %+v, want one marked fetch-trace span", spans)
			}
			if mk := spans[0].Mark; mk.JobsDone != 0 || mk.JobsTotal != len(sp.Specs) || mk.Host != "test-host" {
				t.Errorf("initial mark %+v, want 0/%d on test-host", mk, len(sp.Specs))
			}

			// Jobs complete on pool goroutines while the writer commits.
			log.phase("simulate")
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					log.jobDone()
				}()
			}
			log.write()
			wg.Wait()
			log.write()
			spans = load()
			if len(spans) != 2 || spans[0].Mark != nil || spans[1].Name != "simulate" || spans[1].Mark == nil {
				t.Fatalf("mid-lease write %+v, want closed fetch-trace plus marked simulate", spans)
			}
			if got := spans[1].Mark.JobsDone; got != 2 {
				t.Errorf("mid-lease mark reports %d jobs done, want 2", got)
			}

			log.close()
			spans = load()
			if len(spans) != 2 {
				t.Fatalf("final write holds %d spans, want 2", len(spans))
			}
			for _, s := range spans {
				if s.Mark != nil || s.Cat != telemetry.SpanPhase || s.Parent != "sweep:3" || s.Lane != sp.Name {
					t.Errorf("final span %+v, want a closed phase on %s under sweep:3", s, sp.Name)
				}
			}
		})
	}
}

// TestSweepProgressStates exercises the full state machine on a fake
// clock: pending (no span log), running (fresh mark), stalled (stale mark —
// the dead-worker signal), and done (results committed), plus the ETA
// projection from the observed job rate.
func TestSweepProgressStates(t *testing.T) {
	st := NewDirStore(t.TempDir())
	m, err := NewManifest(testGrid(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	base := time.UnixMilli(1_000_000)
	// Shard 0: a lease whose simulate phase started at base, marked 4 of 8
	// jobs done 1s later and then went silent. Shard 1: never leased.
	name := m.Shards[0].Name
	spans := []telemetry.Span{
		{Name: "fetch-trace", Cat: telemetry.SpanPhase, Lane: name, ID: name + ":1",
			StartMicros: base.Add(-time.Second).UnixMicro(), DurMicros: time.Second.Microseconds()},
		{Name: "simulate", Cat: telemetry.SpanPhase, Lane: name, ID: name + ":2",
			StartMicros: base.UnixMicro(), DurMicros: time.Second.Microseconds(),
			Mark: &telemetry.Mark{Micros: base.Add(time.Second).UnixMicro(), JobsDone: 4, JobsTotal: 8, Host: "w1"}},
	}
	data, err := telemetry.EncodeSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSpans(name, data); err != nil {
		t.Fatal(err)
	}
	stateAt := func(now time.Time, stallAfter time.Duration) []ShardStatus {
		t.Helper()
		statuses, err := SweepProgress(st, m, now, stallAfter)
		if err != nil {
			t.Fatal(err)
		}
		return statuses
	}

	// Just after the mark: running, ETA ≈ remaining/rate = 4/(4/s) = 1s.
	marked := base.Add(time.Second)
	statuses := stateAt(marked.Add(50*time.Millisecond), 0)
	if got := statuses[0].State; got != "running" {
		t.Fatalf("fresh mark: state %q, want running", got)
	}
	if statuses[0].JobsDone != 4 || statuses[0].Host != "w1" {
		t.Errorf("progress row %+v, want 4 jobs done on w1", statuses[0])
	}
	if eta := statuses[0].ETA; eta < 500*time.Millisecond || eta > 2*time.Second {
		t.Errorf("ETA %v, want ≈1s from the observed 4 jobs/sec", eta)
	}
	if got := statuses[1].State; got != "pending" {
		t.Errorf("unleased shard state %q, want pending", got)
	}

	// The default threshold is three progress intervals, the same one the
	// orchestrator's stall monitor uses: just inside it the shard still
	// runs, just past it the dead worker is flagged stalled.
	if got := stateAt(marked.Add(3*progressInterval-time.Millisecond), 0)[0].State; got != "running" {
		t.Errorf("mark just under 3 intervals old: state %q, want running", got)
	}
	now := marked.Add(3*progressInterval + time.Millisecond)
	if got := stateAt(now, 0)[0].State; got != "stalled" {
		t.Fatalf("mark just past 3 intervals old: state %q, want stalled", got)
	}

	// An explicit stall-after overrides the default.
	if got := stateAt(marked.Add(60*time.Millisecond), 50*time.Millisecond)[0].State; got != "stalled" {
		t.Errorf("explicit -stall-after: state %q, want stalled", got)
	}

	// Committed results trump staleness: the shard reports done.
	if _, err := RunShard(st, m, 0, 1, "", "", nil); err != nil {
		t.Fatal(err)
	}
	statuses = stateAt(now, 0)
	if got := statuses[0].State; got != "done" {
		t.Fatalf("committed shard state %q, want done", got)
	}
	if statuses[0].JobsDone != statuses[0].JobsTotal {
		t.Errorf("done shard reports %d/%d jobs", statuses[0].JobsDone, statuses[0].JobsTotal)
	}
}

// syncBuffer is a goroutine-safe log sink: the stall monitor logs from its
// own goroutine while the test reads the buffer afterwards.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// stallingLauncher simulates a worker that leases a shard, writes its first
// mark, goes silent past the stall threshold, and then recovers and
// finishes — so the orchestrator's monitor must flag the stall even though
// the lease ultimately succeeds and no retry ever fires.
type stallingLauncher struct {
	st      Store
	silence time.Duration
}

func (l *stallingLauncher) Slots() int { return 1 }

func (l *stallingLauncher) Launch(m *Manifest, shard int, lease Lease) (string, error) {
	const host = "stall-host"
	// The silent window is well under progressInterval, so no periodic
	// write refreshes the lease-start mark.
	log := startShardLog(l.st, m.Shards[shard], host, lease.SpanParent, nil)
	time.Sleep(l.silence)
	log.close()
	_, err := RunShard(l.st, m, shard, 1, host, lease.SpanParent, nil)
	return host, err
}

// TestOrchestratorFlagsStallBeforeRetry is the forced-dead-worker run: a
// worker stops writing progress mid-shard, and the orchestrator must surface the
// stall through its logger while the lease is still in flight — before the
// retry machinery would ever get involved (the lease succeeds; Retries
// stays 0).
func TestOrchestratorFlagsStallBeforeRetry(t *testing.T) {
	specs := testGrid(t)
	st := NewDirStore(t.TempDir())
	logBuf := &syncBuffer{}
	o := &Orchestrator{
		Store:      st,
		Launcher:   &stallingLauncher{st: st, silence: 700 * time.Millisecond},
		Logger:     slog.New(slog.NewTextHandler(logBuf, nil)),
		StallAfter: 150 * time.Millisecond,
	}
	out, err := o.Run(specs, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Retries != 0 {
		t.Fatalf("lease was retried %d times; the stall signal must not depend on retry", out.Retries)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "shard stalled") {
		t.Errorf("stalled shard never flagged in orchestrator logs:\n%s", logs)
	}
	if !strings.Contains(logs, "stall-host") {
		t.Errorf("stall warning does not name the silent host:\n%s", logs)
	}
}

// scrapeMetrics fetches url and returns the Prometheus text body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of the first sample line whose name+labels
// start with prefix, or -1 when absent.
func metricValue(body, prefix string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		return v
	}
	return -1
}

// TestStoreServerMetricsEndpoint: the serve-side debug mux must expose
// request/byte counters that move with real store traffic, next to the
// process gauges and pprof.
func TestStoreServerMetricsEndpoint(t *testing.T) {
	srv, err := NewStoreServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.DebugMux(telemetry.Default))
	t.Cleanup(ts.Close)
	st := NewObjectStore(ts.URL)

	m, err := NewManifest(testGrid(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadManifest(); err != nil {
		t.Fatal(err)
	}

	body := scrapeMetrics(t, ts.URL+"/metrics")
	if v := metricValue(body, `clgp_store_server_requests_total{method="PUT"}`); v < 1 {
		t.Errorf("PUT counter %v after a manifest write, want >= 1", v)
	}
	if v := metricValue(body, `clgp_store_server_requests_total{method="GET"}`); v < 1 {
		t.Errorf("GET counter %v after a manifest load, want >= 1", v)
	}
	if v := metricValue(body, "clgp_process_goroutines"); v < 1 {
		t.Errorf("process goroutine gauge %v, want >= 1", v)
	}
	if !strings.Contains(body, "clgp_store_client_put_latency_us_bucket") {
		t.Error("client PUT latency histogram missing from exposition")
	}
	// The debug mux also mounts pprof and expvar beside /metrics.
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

// TestWorkerMetricsCounters: executing a shard through RunShard must move
// the worker-side dispatch counters that `clgpsim worker -metrics-addr`
// exposes: one job per record, and at least the lease-start and final
// span-log writes.
func TestWorkerMetricsCounters(t *testing.T) {
	st := NewDirStore(t.TempDir())
	m, err := NewManifest(testGrid(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(telemetry.MetricsMux(telemetry.Default))
	t.Cleanup(ts.Close)
	counters := []string{"clgp_dispatch_jobs_done_total", "clgp_dispatch_progress_writes_total"}
	before := map[string]float64{}
	body := scrapeMetrics(t, ts.URL+"/metrics")
	for _, c := range counters {
		before[c] = math.Max(metricValue(body, c), 0)
	}

	recs, err := RunShard(st, m, 0, 1, "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body = scrapeMetrics(t, ts.URL+"/metrics")
	for c, delta := range map[string]float64{counters[0]: float64(len(recs)), counters[1]: 2} {
		if after := metricValue(body, c); after < before[c]+delta {
			t.Errorf("%s = %v after shard, want >= %v", c, after, before[c]+delta)
		}
	}
}
