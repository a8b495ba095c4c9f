package dispatch

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/freelist"
	"clgp/internal/sim"
	"clgp/internal/stats"
	"clgp/internal/workload"
)

// newTestObjectStore serves a fresh store root over httptest and returns a
// client for it.
func newTestObjectStore(t testing.TB) *ObjectStore {
	t.Helper()
	srv, err := NewStoreServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewObjectStore(ts.URL)
}

// testStores returns one fresh store per backend, keyed by backend name,
// each with the byte-object backend under it so tests can plant raw objects.
func testStores(t *testing.T) map[string]Store {
	return map[string]Store{
		"dir":    NewDirStore(t.TempDir()),
		"object": newTestObjectStore(t),
	}
}

// backendOf returns the byte-object backend under a store.
func backendOf(st Store) backend {
	switch s := st.(type) {
	case *DirStore:
		return s.b
	case *ObjectStore:
		return s.b
	}
	panic(fmt.Sprintf("unknown store %T", st))
}

// testRecords returns a plausible result record per job of sp.
func testRecords(sp ShardPlan) []RunRecord {
	recs := make([]RunRecord, len(sp.Specs))
	for i, spec := range sp.Specs {
		recs[i] = RunRecord{
			Job: spec.Name(), Spec: spec, WallSeconds: 0.5,
			Stats: &stats.Results{Name: spec.Name(), Cycles: uint64(1000 + i), Committed: 500},
		}
	}
	return recs
}

// TestStoreConformance pins the checkpoint protocol on both backends: the
// manifest and shard results round-trip, every malformed or mismatched
// object is rejected, and clearing empties shards and spans.
func TestStoreConformance(t *testing.T) {
	for name, st := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			// resolveManifest distinguishes "no checkpoint yet" from a broken
			// one via os.ErrNotExist; every backend must preserve that.
			if _, err := st.LoadManifest(); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("missing manifest error does not wrap os.ErrNotExist: %v", err)
			}
			m, err := NewManifest(testGrid(t), 2)
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
			for i := range m.Shards {
				if back.Shards[i].Name != m.Shards[i].Name || len(back.Shards[i].Specs) != len(m.Shards[i].Specs) {
					t.Errorf("shard %d round-trip mismatch", i)
				}
			}

			sp := m.Shards[0]
			recs := testRecords(sp)
			// One failed job exercises the error round-trip.
			recs[1].Err = "boom"
			recs[1].Stats = nil
			if done, err := st.ShardComplete(sp); done || err != nil {
				t.Fatalf("shard complete before writing (%v, %v)", done, err)
			}
			if err := st.WriteShardResults(sp, recs); err != nil {
				t.Fatal(err)
			}
			if done, err := st.ShardComplete(sp); !done || err != nil {
				t.Fatalf("shard not complete after writing (%v, %v)", done, err)
			}
			got, err := st.LoadShardResults(sp)
			if err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				if got[i].Job != recs[i].Job || got[i].Err != recs[i].Err {
					t.Errorf("record %d round-trip mismatch: %+v vs %+v", i, got[i], recs[i])
				}
			}
			if got[0].Stats == nil || got[0].Stats.Cycles != 1000 {
				t.Errorf("stats did not round-trip: %+v", got[0].Stats)
			}
			if res := got[1].Result(); res.Err == nil || res.Err.Error() != "boom" {
				t.Errorf("error did not round-trip into sim.Result: %v", res.Err)
			}

			// A result object for the wrong plan (count mismatch) must be
			// rejected.
			raw, err := backendOf(st).Get(shardKey(sp))
			if err != nil {
				t.Fatal(err)
			}
			other := m.Shards[1]
			if err := backendOf(st).Put(shardKey(other), raw); err != nil {
				t.Fatal(err)
			}
			if _, err := st.LoadShardResults(other); err == nil {
				t.Errorf("loading shard 1 from shard 0's object should fail")
			}
			// A wrong job label must be rejected.
			relabelled := append([]RunRecord(nil), recs...)
			relabelled[0].Job = "not-" + relabelled[0].Job
			if err := st.WriteShardResults(sp, relabelled); err != nil {
				t.Fatal(err)
			}
			if _, err := st.LoadShardResults(sp); err == nil {
				t.Errorf("shard object with a wrong job label should fail validation")
			}
			// A shard object produced against a different workload length
			// must be rejected even though the job labels match (labels omit
			// insts/seed).
			tampered := append([]RunRecord(nil), recs...)
			tampered[0].Spec.Insts += 1000
			if err := st.WriteShardResults(sp, tampered); err != nil {
				t.Fatal(err)
			}
			if _, err := st.LoadShardResults(sp); err == nil {
				t.Errorf("shard object with mismatched spec should fail validation")
			}
			// A truncated object must be rejected, not silently accepted.
			if err := backendOf(st).Put(shardKey(sp), raw[:len(raw)/2]); err != nil {
				t.Fatal(err)
			}
			if _, err := st.LoadShardResults(sp); err == nil {
				t.Errorf("truncated shard object should fail validation")
			}

			if err := st.WriteSpans(sp.Name, []byte("{}\n")); err != nil {
				t.Fatal(err)
			}
			if err := st.ClearShards(); err != nil {
				t.Fatal(err)
			}
			for _, s := range m.Shards {
				if done, err := st.ShardComplete(s); err != nil || done {
					t.Errorf("shard %s still complete after ClearShards (%v, %v)", s.Name, done, err)
				}
			}
			if _, err := st.LoadSpans(sp.Name); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("span log survived ClearShards: %v", err)
			}
			if _, err := st.LoadManifest(); err != nil {
				t.Errorf("ClearShards removed the manifest: %v", err)
			}
		})
	}
}

func TestObjectStoreManifestRoundTrip(t *testing.T) {
	st := newTestObjectStore(t)
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
	recs := testRecords(sp)
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
	// A shard that was never written must not load.
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

// TestConcurrentCommits: workers racing to commit the same objects — a hung
// lease's late commit against its retry's, or recorders sharing a key — all
// succeed, and what lands is one whole, valid object. On a directory store
// ClearShards then also reclaims the temporaries killed workers leave.
func TestConcurrentCommits(t *testing.T) {
	const goroutines, rounds = 4, 50
	for name, st := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			m, err := NewManifest(testGrid(t), 2)
			if err != nil {
				t.Fatal(err)
			}
			sp := m.Shards[0]
			recs := testRecords(sp)
			spans := []byte(`{"name":"simulate"}` + "\n")
			errs := make(chan error, goroutines*rounds*3)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						errs <- st.WriteShardResults(sp, recs)
						errs <- st.WriteSpans(sp.Name, spans)
						errs <- st.WriteManifest(m)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatalf("concurrent commit failed: %v", err)
				}
			}
			if _, err := st.LoadShardResults(sp); err != nil {
				t.Errorf("shard after concurrent commits: %v", err)
			}
			if got, err := st.LoadSpans(sp.Name); err != nil || !bytes.Equal(got, spans) {
				t.Errorf("span log after concurrent commits: %q, %v", got, err)
			}
			if _, err := st.LoadManifest(); err != nil {
				t.Errorf("manifest after concurrent commits: %v", err)
			}

			dir, ok := st.(*DirStore)
			if !ok {
				return
			}
			// Temporaries a killed worker left: this version's unique ones
			// and the fixed names earlier versions used.
			for _, leftover := range []string{
				filepath.Join(ShardsDir, m.Shards[1].Name+".jsonl.123456.tmp"),
				filepath.Join(ShardsDir, sp.Name+".jsonl.tmp"),
				filepath.Join(SpansDir, m.Shards[1].Name+".jsonl.tmp"),
			} {
				if err := os.WriteFile(filepath.Join(dir.Location(), leftover), []byte(`{"partial":`), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.ClearShards(); err != nil {
				t.Fatal(err)
			}
			for _, sub := range []string{ShardsDir, SpansDir} {
				ents, err := os.ReadDir(filepath.Join(dir.Location(), sub))
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					t.Errorf("ClearShards left %s/%s", sub, e.Name())
				}
			}
		})
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
	req, err := http.NewRequest(http.MethodPut, st.b.(objectClient).url(shardKey(sp)), bytes.NewReader(full[:len(full)/2]))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ObjectHashHeader, hashOf(full))
	resp, err := st.b.(objectClient).client.Do(req)
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
	// A list prefix must not walk outside the root either.
	for _, prefix := range []string{"../", "../../", "a/../../", "/", "/etc/"} {
		resp, err := http.Get(ts.URL + ListPath + "?prefix=" + url.QueryEscape(prefix))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("list prefix %q: %s %q, want 400", prefix, resp.Status, body)
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

// TestObjectPutKeepsNoReference: a server that answers 500 without reading
// the upload leaves the transport still sending (or discarding) the body
// after Client.Do returns; Put must not return before the transport has let
// go of it, so the caller may overwrite the buffer at once. The race
// detector catches a Put that returns early.
func TestObjectPutKeepsNoReference(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "refused unread", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	st := NewObjectStore(ts.URL)
	data := bytes.Repeat([]byte{0x5a}, 4<<20)
	for try := 0; try < 3; try++ {
		err := st.PushSnapshot("k.clgs", data)
		if err == nil || !strings.Contains(err.Error(), "500") {
			t.Fatalf("push to a refusing server: %v, want a 500 error", err)
		}
		for i := range data {
			data[i] = byte(try)
		}
	}
}

// TestObjectStorePushIsCopied: a snapshot pushed through the StoreServer and
// overwritten at once is fetched back as it was pushed.
func TestObjectStorePushIsCopied(t *testing.T) {
	st := newTestObjectStore(t)
	data := bytes.Repeat([]byte("snapshot"), 64<<10)
	want := append([]byte(nil), data...)
	if err := st.PushSnapshot("k.clgs", data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0
	}
	got, err := st.FetchSnapshot("k.clgs")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the fetched snapshot differs from the pushed bytes")
	}
}

// snapshotCount counts the snapshots a run fetched and pushed, and keeps
// the size of the largest one pushed. A fetch returns only once the
// server's GET handler has returned, which it reports on served.
type snapshotCount struct {
	sim.SnapshotStore
	served          chan struct{}
	fetches, pushes atomic.Int64
	largest         atomic.Int64
}

func (s *snapshotCount) FetchSnapshot(key string) ([]byte, error) {
	data, err := s.SnapshotStore.FetchSnapshot(key)
	<-s.served
	if err == nil {
		s.fetches.Add(1)
	}
	return data, err
}

func (s *snapshotCount) PushSnapshot(key string, data []byte) error {
	s.pushes.Add(1)
	if n := int64(len(data)); n > s.largest.Load() {
		s.largest.Store(n)
	}
	return s.SnapshotStore.PushSnapshot(key, data)
}

// TestObjectStoreRestoreAllocBudget: a job restored from an HTTP object
// store reads its ~350 KB snapshot into a buffer from freelist.Artifacts,
// and so does the server, and both hand their buffers back, so a restored
// job allocates tens of kilobytes, not a snapshot container or more. It is
// the object-store counterpart of sim's TestRunnerJobAllocBudget.
//
// Client and server share one process and one list here. Whether a fetch
// needs one buffer or two depends on whether the server hands its buffer
// back before the client takes one, which the scheduler decides, and a
// buffer smaller than the snapshot is grown. So the measured pass starts
// with two buffers of the largest snapshot's size in the list, and each
// fetch returns only after the server's handler has.
func TestObjectStoreRestoreAllocBudget(t *testing.T) {
	const budget = 64 << 10
	const insts = 10_000
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(p, insts, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewStoreServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if r.Method == http.MethodGet {
			served <- struct{}{}
		}
	}))
	defer ts.Close()
	store := &snapshotCount{SnapshotStore: NewObjectStore(ts.URL), served: served}
	var jobs []sim.Job
	for _, size := range []int{2 << 10, 8 << 10} {
		for _, eng := range []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP} {
			cfg := core.Config{Tech: cacti.Tech90, L1ISize: size, Engine: eng, UseL0: eng == core.EngineCLGP}
			jobs = append(jobs, sim.Job{Config: cfg, Workload: w, Warmup: insts / 2, Snapshots: store})
		}
	}
	for i, r := range (sim.Runner{Workers: 1}).Run(jobs) {
		if r.Err != nil {
			t.Fatalf("cold job %d: %v", i, r.Err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for range 2 {
		freelist.Artifacts.Put(make([]byte, 0, store.largest.Load()))
	}
	allocs := make([]uint64, len(jobs)+1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs[0] = ms.TotalAlloc
	rn := sim.Runner{Workers: 1, OnResult: func(i int, r sim.Result) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocs[i+1] = ms.TotalAlloc
	}}
	for i, r := range rn.Run(jobs) {
		if r.Err != nil {
			t.Fatalf("restored job %d: %v", i, r.Err)
		}
	}
	if f, p := store.fetches.Load(), store.pushes.Load(); f != int64(len(jobs)) || p != int64(len(jobs)) {
		t.Fatalf("%d snapshots fetched and %d pushed, want %d of each", f, p, len(jobs))
	}
	var most uint64
	for i := range jobs {
		got := allocs[i+1] - allocs[i]
		if got > budget {
			t.Errorf("restored job %d (%v, %d B L1I) allocated %d bytes (budget %d)",
				i, jobs[i].Config.Engine, jobs[i].Config.L1ISize, got, budget)
		}
		most = max(most, got)
	}
	t.Logf("the most a restored job allocated: %d bytes", most)
}
