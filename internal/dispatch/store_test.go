package dispatch

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"clgp/internal/core"
	"clgp/internal/stats"
	"clgp/internal/tracefile"
)

// newTestObjectStore serves a fresh store root over httptest and returns a
// client with a private trace cache.
func newTestObjectStore(t testing.TB) *ObjectStore {
	t.Helper()
	srv, err := NewStoreServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	st := NewObjectStore(ts.URL)
	st.CacheDir = t.TempDir()
	return st
}

func TestObjectStoreManifestRoundTrip(t *testing.T) {
	st := newTestObjectStore(t)
	// resolveManifest distinguishes "no checkpoint yet" from a broken one
	// via os.ErrNotExist; the client must preserve that.
	if _, err := st.LoadManifest(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest error does not wrap os.ErrNotExist: %v", err)
	}
	m, err := NewManifest(testGrid(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	back, err := st.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if back.GridHash != m.GridHash || len(back.Shards) != len(m.Shards) {
		t.Fatalf("manifest round-trip mismatch: %+v vs %+v", back, m)
	}
}

func TestObjectStoreShardRoundTripAndClear(t *testing.T) {
	st := newTestObjectStore(t)
	m, err := NewManifest(testGrid(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	sp := m.Shards[0]
	recs := make([]RunRecord, len(sp.Specs))
	for i, spec := range sp.Specs {
		recs[i] = RunRecord{
			Job: spec.Name(), Spec: spec, WallSeconds: 0.5,
			Stats: &stats.Results{Name: spec.Name(), Cycles: uint64(1000 + i), Committed: 500},
		}
	}
	if done, err := st.ShardComplete(sp); err != nil || done {
		t.Fatalf("shard complete before writing (%v, %v)", done, err)
	}
	if err := st.WriteShardResults(sp, recs); err != nil {
		t.Fatal(err)
	}
	if done, err := st.ShardComplete(sp); err != nil || !done {
		t.Fatalf("shard not complete after writing (%v, %v)", done, err)
	}
	back, err := st.LoadShardResults(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) || back[0].Stats == nil || back[0].Stats.Cycles != 1000 {
		t.Fatalf("shard results did not round-trip: %+v", back)
	}
	// The same validation the directory backend applies: a result object
	// for the wrong plan must be rejected.
	if _, err := st.LoadShardResults(m.Shards[1]); err == nil {
		t.Errorf("loading shard 1 from an empty key should fail")
	}
	if err := st.ClearShards(); err != nil {
		t.Fatal(err)
	}
	if done, err := st.ShardComplete(sp); err != nil || done {
		t.Errorf("shard still complete after ClearShards (%v, %v)", done, err)
	}
}

// TestTruncatedUploadNotCommitted is the corruption half of the store
// contract: an upload whose body does not match its declared content hash —
// a worker dying mid-PUT, a connection cut, a proxy mangling bytes — must
// be refused server-side, leaving the shard incomplete so it re-runs.
func TestTruncatedUploadNotCommitted(t *testing.T) {
	st := newTestObjectStore(t)
	m, err := NewManifest(testGrid(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	sp := m.Shards[0]
	recs := make([]RunRecord, len(sp.Specs))
	for i, spec := range sp.Specs {
		recs[i] = RunRecord{Job: spec.Name(), Spec: spec,
			Stats: &stats.Results{Name: spec.Name(), Cycles: 1, Committed: 1}}
	}
	full, err := encodeShardResults(sp, recs)
	if err != nil {
		t.Fatal(err)
	}
	// Declare the hash of the full JSONL but deliver only half the bytes.
	req, err := http.NewRequest(http.MethodPut, st.objectURL(shardKey(sp)), bytes.NewReader(full[:len(full)/2]))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ObjectHashHeader, hashOf(full))
	resp, err := st.client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("truncated upload got %s, want 422", resp.Status)
	}
	if done, err := st.ShardComplete(sp); err != nil || done {
		t.Fatalf("truncated upload was committed (%v, %v); resume would merge garbage", done, err)
	}
	// The shard re-runs: a later, intact commit succeeds and validates.
	if err := st.WriteShardResults(sp, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadShardResults(sp); err != nil {
		t.Fatalf("intact commit after the rejected one failed: %v", err)
	}
}

// TestObjectStoreGetDetectsCorruption: a blob corrupted at rest (or in
// transit) fails the client's ETag verification instead of parsing as
// results.
func TestObjectStoreGetDetectsCorruption(t *testing.T) {
	root := t.TempDir()
	srv, err := NewStoreServer(root)
	if err != nil {
		t.Fatal(err)
	}
	mangle := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mangle && r.Method == http.MethodGet {
			// Serve a truncated body under the original ETag.
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, r)
			w.Header().Set("ETag", rec.Header().Get("ETag"))
			body := rec.Body.Bytes()
			w.Write(body[:len(body)/2])
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	st := NewObjectStore(ts.URL)

	m, err := NewManifest(testGrid(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	mangle = true
	if _, err := st.LoadManifest(); err == nil || !strings.Contains(err.Error(), "ETag") {
		t.Fatalf("corrupted transfer not detected: %v", err)
	}
}

// TestObjectStoreSweepMatchesDirStore: the same grid checkpointed through
// the object store produces records identical to the shared-directory path,
// and a second resumed run skips everything.
func TestObjectStoreSweepMatchesDirStore(t *testing.T) {
	specs := testGrid(t)
	baseline := runBaseline(t, specs)

	st := newTestObjectStore(t)
	o := &Orchestrator{Store: st, Workers: 2}
	out, err := o.Run(specs, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBaseline(t, baseline, out)
	if out.Retries != 0 {
		t.Errorf("fault-free sweep took %d retries", out.Retries)
	}

	out2, err := o.Run(specs, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Ran) != 0 || len(out2.Skipped) != 3 {
		t.Errorf("resumed object-store sweep ran %v / skipped %v", out2.Ran, out2.Skipped)
	}
	checkAgainstBaseline(t, baseline, out2)
}

// TestObjectStoreTracePushFetch: publish-by-fingerprint round-trips a
// container, cache hits skip the network, and a fingerprint the store has
// never seen fails cleanly.
func TestObjectStoreTracePushFetch(t *testing.T) {
	st := newTestObjectStore(t)
	path := recordSharedTrace(t, t.TempDir(), "gzip", 6_000, 7)
	src, err := tracefile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fp := src.Fingerprint()
	src.Close()

	if err := st.PushTrace(path); err != nil {
		t.Fatal(err)
	}
	local, err := st.FetchTrace(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tracefile.Open(local)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Fingerprint() != fp || got.Len() != 6_000 {
		t.Errorf("fetched container fingerprint %#x len %d, want %#x len %d", got.Fingerprint(), got.Len(), fp, 6_000)
	}
	// Second fetch must come from the cache (same resolved path).
	again, err := st.FetchTrace(path, fp)
	if err != nil || again != local {
		t.Errorf("cache miss on second fetch: %q vs %q (%v)", again, local, err)
	}
	if _, err := st.FetchTrace(path, fp+1); err == nil {
		t.Errorf("fetching an unpublished fingerprint should fail")
	}
	if _, err := st.FetchTrace(path, 0); err == nil {
		t.Errorf("fetching a zero fingerprint should fail")
	}
}

// TestObjectStoreStreamedSweep is the remote-streaming acceptance path: a
// streamed grid over the object store — container published by fingerprint,
// fetched back by each worker — matches the shared-filesystem streamed run.
func TestObjectStoreStreamedSweep(t *testing.T) {
	const insts = 20_000
	const seed = 7
	path := recordSharedTrace(t, t.TempDir(), "gzip", insts, seed)
	gc := GridConfig{
		Profiles: []string{"gzip"}, Insts: insts, Seed: seed,
		Engines:   []core.EngineKind{core.EngineNone, core.EngineCLGP},
		Sizes:     []int{1 << 10, 4 << 10},
		TraceFile: path, Window: 8192,
	}
	specs, err := GridSpecs(gc)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runBaseline(t, specs)

	st := newTestObjectStore(t)
	o := &Orchestrator{Store: st, Workers: 2}
	out, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBaseline(t, baseline, out)

	// The remote-worker condition: the spec's TraceFile path does not
	// exist on the executing host, so the shard must fetch the container
	// from the store by fingerprint. Deleting the local file after the
	// orchestrator pushed it simulates exactly that.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	m, err := st.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for id := range m.Shards {
		recs, err := RunShard(st, m, id, 1, "", "", nil)
		if err != nil {
			t.Fatalf("remote-style shard %d: %v", id, err)
		}
		for _, rec := range recs {
			if rec.Err != "" {
				t.Fatalf("remote-style job %s failed: %s", rec.Job, rec.Err)
			}
			if got := keyOf(rec.Result()); got != baseline[rec.Job] {
				t.Errorf("remote-style job %s diverged: %+v vs %+v", rec.Job, got, baseline[rec.Job])
			}
		}
	}
}

func TestStoreServerRejectsTraversal(t *testing.T) {
	srv, err := NewStoreServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for _, key := range []string{"../escape", "a/../../b", "/abs", "a//b"} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+ObjectPathPrefix+key, strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		// Build the raw path by hand so the client does not clean it first.
		req.URL.Path = ObjectPathPrefix + key
		req.URL.RawPath = ""
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
			t.Errorf("key %q was accepted", key)
		}
	}
}

func TestOpenStoreResolution(t *testing.T) {
	st, err := OpenStore("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*ObjectStore); !ok {
		t.Errorf("http location resolved to %T", st)
	}
	st, err = OpenStore("/tmp/sweep")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*DirStore); !ok {
		t.Errorf("directory location resolved to %T", st)
	}
	if _, err := OpenStore(""); err == nil {
		t.Errorf("empty location accepted")
	}
	// Mistyped URLs must not silently become local directories.
	for _, loc := range []string{"127.0.0.1:8420", "host:80", "ftp://host/x"} {
		if _, err := OpenStore(loc); err == nil {
			t.Errorf("location %q accepted as a directory store", loc)
		}
	}
	// A Windows-style or slashed path with a colon is still a directory.
	if _, err := OpenStore("./odd:name/dir"); err != nil {
		t.Errorf("slashed path rejected: %v", err)
	}
}
