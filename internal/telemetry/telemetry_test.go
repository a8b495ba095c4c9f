package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	h := NewHistogram([]uint64{10, 100})
	for _, v := range []uint64{1, 10, 11, 101} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 123 {
		t.Fatalf("hist count=%d sum=%d, want 4/123", h.Count(), h.Sum())
	}
	if h.buckets[0].Load() != 2 || h.buckets[1].Load() != 1 || h.buckets[2].Load() != 1 {
		t.Fatalf("bucket fill = [%d %d %d], want [2 1 1]",
			h.buckets[0].Load(), h.buckets[1].Load(), h.buckets[2].Load())
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("same (name) must return the same counter")
	}
	l1 := r.Counter("y_total", "y", Label{"k", "v1"})
	l2 := r.Counter("y_total", "y", Label{"k", "v2"})
	if l1 == l2 {
		t.Fatal("different labels must return different series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict must panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("clgp_test_total", "A test counter.", Label{"shard", "s0"}).Add(3)
	r.Gauge("clgp_test_gauge", "A test gauge.").Set(-2)
	r.GaugeFunc("clgp_test_fn", "A func gauge.", func() float64 { return 1.5 })
	h := r.Histogram("clgp_test_lat", "A test histogram.", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE clgp_test_total counter",
		`clgp_test_total{shard="s0"} 3`,
		"clgp_test_gauge -2",
		"clgp_test_fn 1.5",
		`clgp_test_lat_bucket{le="10"} 1`,
		`clgp_test_lat_bucket{le="100"} 2`,
		`clgp_test_lat_bucket{le="+Inf"} 3`,
		"clgp_test_lat_sum 555",
		"clgp_test_lat_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramLabelsRenderInsideBuckets(t *testing.T) {
	r := NewRegistry()
	r.Histogram("clgp_lab_lat", "h", []uint64{10}, Label{"op", "get"}).Observe(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`clgp_lab_lat_bucket{op="get",le="10"} 1`,
		`clgp_lab_lat_sum{op="get"} 3`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("za_total", "")
	g := r.Gauge("za_gauge", "")
	h := r.Histogram("za_lat", "", []uint64{1, 10, 100, 1000})
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(2)
		g.Set(3)
		h.Observe(42)
	}); n != 0 {
		t.Fatalf("hot path allocates %.1f allocs/op, want 0", n)
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clgp_served_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "clgp_served_total 1") {
		t.Errorf("body missing counter:\n%s", body)
	}
}

func TestMetricsMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("clgp_mux_total", "").Add(9)
	srv := httptest.NewServer(MetricsMux(r))
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":    "clgp_mux_total 9",
		"/debug/vars": "memstats",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("%s: body missing %q", path, want)
		}
	}
	// pprof index must respond (content is environment-dependent).
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/: status %d", resp.StatusCode)
	}
}

func TestStartMetricsServer(t *testing.T) {
	dir := t.TempDir()
	addrFile := dir + "/addr.txt"
	r := NewRegistry()
	r.Counter("clgp_boot_total", "").Inc()
	bound, stop, err := StartMetricsServer("127.0.0.1:0", addrFile, r)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	fileAddr, err := readFile(addrFile)
	if err != nil {
		t.Fatal(err)
	}
	if fileAddr != bound {
		t.Fatalf("addr file %q != bound %q", fileAddr, bound)
	}
	resp, err := httpGet("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "clgp_boot_total 1") {
		t.Errorf("metrics body missing counter:\n%s", resp)
	}
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{Cycles: 10, SkippedCycles: 4, FastForwards: 2, WindowMaxResident: 5, WindowCap: 8, WindowSourceReads: 100}
	a.Merge(Snapshot{Cycles: 7, SkippedCycles: 1, FastForwards: 1, PrefetchesIssued: 3, WindowMaxResident: 9, WindowCap: 8, WindowSourceReads: 50})
	if a.Cycles != 17 || a.SkippedCycles != 5 || a.FastForwards != 3 || a.PrefetchesIssued != 3 {
		t.Fatalf("merged counters wrong: %+v", a)
	}
	if a.WindowMaxResident != 9 || a.WindowCap != 8 || a.WindowSourceReads != 150 {
		t.Fatalf("merged window fields wrong: %+v", a)
	}
}

func TestHostSampler(t *testing.T) {
	s := ReadHostSample()
	if s.GOMAXPROCS < 1 || s.NumGoroutine < 1 || s.UnixMillis == 0 {
		t.Fatalf("implausible sample: %+v", s)
	}
	if s.CPUSeconds < 0 || s.MaxRSSBytes <= 0 {
		t.Fatalf("implausible usage: %+v", s)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("visible", "shard", "s1")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("info should be filtered at warn level")
	}
	if !strings.Contains(out, `"msg":"visible"`) || !strings.Contains(out, `"shard":"s1"`) {
		t.Errorf("json output wrong: %s", out)
	}
	if _, err := NewLogger(&buf, "nope", "text"); err == nil {
		t.Error("bad level must error")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Error("bad format must error")
	}
	nl := NopLogger()
	if nl.Enabled(nil, 12) {
		t.Error("nop logger must report disabled")
	}
	nl.Error("dropped") // must not panic
}
