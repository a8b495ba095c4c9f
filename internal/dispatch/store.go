package dispatch

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Store is the checkpoint and artifact backend of a sweep: everything the
// orchestrator and its workers exchange — the manifest, per-shard JSONL
// result objects, and shared trace containers — flows through this
// interface, so the same protocol runs over a shared directory or an HTTP
// object store without either side knowing which.
//
// Commit semantics are the load-bearing part of the contract: a shard
// result either exists complete or not at all (ShardComplete implies a
// fully validated-parseable object), because resume uses bare existence as
// the completion marker. DirStore gets this from write-to-temp + rename;
// ObjectStore from integrity-checked uploads that the server refuses to
// commit on mismatch.
type Store interface {
	// Location renders the store in the form `clgpsim worker -store` accepts
	// (a directory path or an http(s) base URL), which is how launchers tell
	// spawned workers where the sweep lives.
	Location() string

	// LoadManifest reads and validates the sweep manifest. The error wraps
	// os.ErrNotExist when no manifest has been committed yet, which resume
	// treats as a fresh start.
	LoadManifest() (*Manifest, error)
	// WriteManifest commits the manifest atomically.
	WriteManifest(m *Manifest) error

	// ShardComplete reports whether the shard's result object exists.
	// Because results are committed atomically, existence implies
	// completeness; content is still validated at merge time. A non-nil
	// error means existence could not be determined (a transient store
	// failure) — callers must not conflate that with "absent", or a
	// committed shard would be spuriously re-run or failed.
	ShardComplete(sp ShardPlan) (bool, error)
	// WriteShardResults commits a shard's records as one atomic JSONL object.
	WriteShardResults(sp ShardPlan, recs []RunRecord) error
	// LoadShardResults reads a completed shard's records and validates them
	// against the plan.
	LoadShardResults(sp ShardPlan) ([]RunRecord, error)
	// ClearShards removes every shard result (and any leftover partials)
	// plus stale span logs, used when starting a sweep from scratch over an
	// old checkpoint.
	ClearShards() error

	// WriteSpans commits a span log (telemetry JSONL, see
	// telemetry.EncodeSpans) atomically under name — a shard name for a
	// lease's phase spans and progress, SweepSpansName for the
	// orchestrator's. Spans are advisory: implementations commit
	// whole-or-not-at-all like results, but a failed write only degrades
	// progress reporting and the exported trace, never the sweep.
	WriteSpans(name string, data []byte) error
	// LoadSpans reads a span log. The error wraps os.ErrNotExist when
	// nothing has been recorded under name.
	LoadSpans(name string) ([]byte, error)

	// FetchTrace resolves a spec's trace-container reference to a local
	// file path. name is the spec's TraceFile value; fingerprint is the
	// workload generation fingerprint the consumer computed by rebuilding
	// the program image (workload.Fingerprint), which is the key remote
	// stores address containers by. Shared-filesystem stores return name
	// unchanged.
	FetchTrace(name string, fingerprint uint64) (string, error)
	// PushTrace publishes a local trace container so workers on other hosts
	// can fetch it by its header fingerprint. Shared-filesystem stores need
	// no copy and treat this as a no-op.
	PushTrace(localPath string) error

	// FetchSnapshot returns the warm-state snapshot artifact stored under
	// key (sim.SnapshotKey form), or an error wrapping os.ErrNotExist when
	// no worker has published it yet. Together with PushSnapshot this makes
	// every Store a sim.SnapshotStore, so warm-up sharing spans hosts
	// through the same backend the sweep's results flow through.
	FetchSnapshot(key string) ([]byte, error)
	// PushSnapshot publishes a snapshot artifact atomically. Snapshot bytes
	// are deterministic, so workers racing on one key commit identical
	// artifacts and either winner is correct.
	PushSnapshot(key string, data []byte) error
}

// DirStore is the shared-directory store backend: the manifest and shard
// files live under Dir exactly as in the original single-host layout, so a
// checkpoint directory written by earlier versions is a valid DirStore.
// Multi-host use requires Dir to be a shared filesystem (NFS or similar);
// trace containers are referenced by path and never copied.
type DirStore struct {
	// Dir is the sweep checkpoint directory (manifest + shards/).
	Dir string
}

// NewDirStore returns a store over the sweep directory dir.
func NewDirStore(dir string) *DirStore { return &DirStore{Dir: dir} }

// Location implements Store: the directory path itself.
func (s *DirStore) Location() string { return s.Dir }

// LoadManifest implements Store.
func (s *DirStore) LoadManifest() (*Manifest, error) { return LoadManifest(s.Dir) }

// WriteManifest implements Store.
func (s *DirStore) WriteManifest(m *Manifest) error { return WriteManifest(s.Dir, m) }

// ShardComplete implements Store.
func (s *DirStore) ShardComplete(sp ShardPlan) (bool, error) {
	_, err := os.Stat(shardFilePath(s.Dir, sp))
	switch {
	case err == nil:
		return true, nil
	case os.IsNotExist(err):
		return false, nil
	default:
		return false, fmt.Errorf("dispatch: checking shard %s: %w", sp.Name, err)
	}
}

// WriteShardResults implements Store.
func (s *DirStore) WriteShardResults(sp ShardPlan, recs []RunRecord) error {
	return WriteShardResults(s.Dir, sp, recs)
}

// LoadShardResults implements Store.
func (s *DirStore) LoadShardResults(sp ShardPlan) ([]RunRecord, error) {
	return LoadShardResults(s.Dir, sp)
}

// ClearShards implements Store.
func (s *DirStore) ClearShards() error { return ClearShards(s.Dir) }

// spanFilePath returns the span JSONL file written under name.
func spanFilePath(dir, name string) string {
	return filepath.Join(dir, SpansDir, name+".jsonl")
}

// WriteSpans implements Store: temp+rename, like shard results.
func (s *DirStore) WriteSpans(name string, data []byte) error {
	final := spanFilePath(s.Dir, name)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("dispatch: creating spans directory: %w", err)
	}
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dispatch: writing spans for %s: %w", name, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("dispatch: committing spans for %s: %w", name, err)
	}
	return nil
}

// LoadSpans implements Store.
func (s *DirStore) LoadSpans(name string) ([]byte, error) {
	data, err := os.ReadFile(spanFilePath(s.Dir, name))
	if err != nil {
		return nil, fmt.Errorf("dispatch: reading spans for %s: %w", name, err)
	}
	return data, nil
}

// FetchTrace implements Store: with a shared filesystem the reference is
// already a readable path, so it resolves to itself.
func (s *DirStore) FetchTrace(name string, fingerprint uint64) (string, error) {
	return name, nil
}

// PushTrace implements Store: nothing to publish on a shared filesystem.
func (s *DirStore) PushTrace(localPath string) error { return nil }

// SnapshotsDir is the subdirectory (and object-key prefix) warm-state
// snapshot artifacts live under.
const SnapshotsDir = "snapshots"

// FetchSnapshot implements Store (and sim.SnapshotStore): a plain read from
// the sweep's snapshots directory; os.ReadFile's not-exist error is the miss
// signal the contract asks for.
func (s *DirStore) FetchSnapshot(key string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.Dir, SnapshotsDir, key))
}

// PushSnapshot implements Store: temp + rename, like every other DirStore
// commit, so a concurrently fetching worker never sees a torn artifact.
func (s *DirStore) PushSnapshot(key string, data []byte) error {
	dir := filepath.Join(s.Dir, SnapshotsDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dispatch: creating snapshots directory: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("dispatch: writing snapshot %s: %w", key, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("dispatch: writing snapshot %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dispatch: writing snapshot %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, key)); err != nil {
		return fmt.Errorf("dispatch: committing snapshot %s: %w", key, err)
	}
	return nil
}

// OpenStore resolves a -store flag value to a backend: http(s) URLs open an
// ObjectStore client, anything else is a sweep directory. Locations that
// look like a mistyped URL — an unsupported scheme, or a bare host:port
// missing its scheme — are rejected rather than silently treated as a
// local directory named after them.
func OpenStore(location string) (Store, error) {
	if location == "" {
		return nil, fmt.Errorf("dispatch: empty store location")
	}
	if strings.HasPrefix(location, "http://") || strings.HasPrefix(location, "https://") {
		return NewObjectStore(location), nil
	}
	if i := strings.Index(location, "://"); i >= 0 {
		return nil, fmt.Errorf("dispatch: store %s: unsupported scheme %q (only http and https)", location, location[:i])
	}
	if looksLikeHostPort(location) {
		return nil, fmt.Errorf("dispatch: store %s looks like a host:port with no scheme; did you mean http://%s?", location, location)
	}
	return NewDirStore(location), nil
}

// looksLikeHostPort reports whether a scheme-less location is almost
// certainly a forgotten-scheme network address ("127.0.0.1:8420",
// "host:80") rather than a directory path.
func looksLikeHostPort(location string) bool {
	host, port, ok := strings.Cut(location, ":")
	if !ok || host == "" || port == "" || strings.ContainsAny(location, "/\\") {
		return false
	}
	for _, r := range port {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// MergeStore loads every shard's results from the store and returns them in
// grid order. All shards must be complete; each object is validated against
// the plan.
func MergeStore(st Store, m *Manifest) ([]RunRecord, error) {
	recs := make([]RunRecord, 0, m.NumJobs())
	for _, sp := range m.Shards {
		shardRecs, err := st.LoadShardResults(sp)
		if err != nil {
			return nil, err
		}
		recs = append(recs, shardRecs...)
	}
	return recs, nil
}
