package dispatch

import (
	"net/http"
	"time"

	"clgp/internal/stats"
	"clgp/internal/telemetry"
)

// Dispatch-lifecycle metrics, registered on telemetry.Default so the
// /metrics endpoints of `clgpsim store serve` and `clgpsim worker
// -metrics-addr` expose them. Client-side store traffic and server-side
// request handling are instrumented separately (a worker scrape shows its
// own GET/PUT traffic; a store scrape shows everything it served).
var (
	mLeases = telemetry.Default.Counter("clgp_dispatch_leases_total",
		"Shard leases taken by the orchestrator (first attempts and retries).")
	mRetries = telemetry.Default.Counter("clgp_dispatch_retries_total",
		"Extra shard leases taken after launch failures.")
	mBackoffWait = telemetry.Default.Counter("clgp_dispatch_backoff_wait_ms_total",
		"Milliseconds spent sleeping in retry backoff.")
	mJobsDone = telemetry.Default.Counter("clgp_dispatch_jobs_done_total",
		"Simulation jobs completed by this process's shard runs.")
	mProgressWrites = telemetry.Default.Counter("clgp_dispatch_progress_writes_total",
		"Shard span-log writes committed to the store by this process's shard runs.")
	mStallsFlagged = telemetry.Default.Counter("clgp_dispatch_stalls_flagged_total",
		"Shards flagged stalled from stale progress marks before their retry fired.")
	mSimCycles = simCycleCounters()

	storeLatencyBounds = []uint64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

	mStoreGetBytes = telemetry.Default.Counter("clgp_store_client_get_bytes_total",
		"Bytes downloaded from the object store by this process.")
	mStorePutBytes = telemetry.Default.Counter("clgp_store_client_put_bytes_total",
		"Bytes uploaded to the object store by this process.")
	mStoreGetLatency = telemetry.Default.Histogram("clgp_store_client_get_latency_us",
		"Object-store GET latency in microseconds.", storeLatencyBounds)
	mStorePutLatency = telemetry.Default.Histogram("clgp_store_client_put_latency_us",
		"Object-store PUT latency in microseconds.", storeLatencyBounds)

	mServerReqs = map[string]*telemetry.Counter{
		http.MethodGet:    serverReqCounter("GET"),
		http.MethodHead:   serverReqCounter("HEAD"),
		http.MethodPut:    serverReqCounter("PUT"),
		http.MethodDelete: serverReqCounter("DELETE"),
	}
	mServerBytesIn = telemetry.Default.Counter("clgp_store_server_bytes_in_total",
		"Object bytes received by the store server.")
	mServerBytesOut = telemetry.Default.Counter("clgp_store_server_bytes_out_total",
		"Object bytes served by the store server.")
)

// simCycleCounters builds one clgp_sim_cycles_total series per cycle cause,
// so a worker (or in-process orchestrator) scrape shows where the simulated
// cycles of its completed jobs went.
func simCycleCounters() [stats.NumCycleCauses]*telemetry.Counter {
	var out [stats.NumCycleCauses]*telemetry.Counter
	for c := stats.CycleCause(0); c < stats.NumCycleCauses; c++ {
		out[c] = telemetry.Default.Counter("clgp_sim_cycles_total",
			"Simulated cycles by leading cause, accumulated over completed jobs.",
			telemetry.Label{Key: "cause", Value: c.String()})
	}
	return out
}

// countSimCycles accumulates one finished job's cycle accounts.
func countSimCycles(a stats.CycleAccounts) {
	for c, n := range a {
		mSimCycles[c].Add(n)
	}
}

func serverReqCounter(method string) *telemetry.Counter {
	return telemetry.Default.Counter("clgp_store_server_requests_total",
		"Object requests handled by the store server, by method.",
		telemetry.Label{Key: "method", Value: method})
}

// countServerRequest records one handled object request; unlisted methods
// (rejected with 405) are not counted.
func countServerRequest(method string) {
	if c, ok := mServerReqs[method]; ok {
		c.Inc()
	}
}

// observeStoreGet records one client-side object download.
func observeStoreGet(bytes int, elapsed time.Duration) {
	mStoreGetBytes.Add(uint64(bytes))
	mStoreGetLatency.Observe(uint64(elapsed.Microseconds()))
}

// observeStorePut records one client-side object upload.
func observeStorePut(bytes int, elapsed time.Duration) {
	mStorePutBytes.Add(uint64(bytes))
	mStorePutLatency.Observe(uint64(elapsed.Microseconds()))
}
