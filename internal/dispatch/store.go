package dispatch

import (
	"fmt"
	"strings"

	"clgp/internal/blob"
)

// Store is the checkpoint and artifact backend of a sweep: everything the
// orchestrator and its workers exchange — the manifest, per-shard JSONL
// result objects, span logs and warm-state snapshots — flows through this
// interface, so the same protocol runs over a shared directory or an HTTP
// object store without either side knowing which.
//
// Commit semantics are the load-bearing part of the contract: a shard
// result either exists complete or not at all (ShardComplete implies a
// fully validated-parseable object), because resume uses bare existence as
// the completion marker. Both implementations run one protocol over a
// byte-object backend whose Put is that commit: blob.Dir's unique temp file plus
// rename for DirStore, and for ObjectStore an integrity-checked upload that
// the server commits through the same blob.Dir or refuses on mismatch.
// Concurrent commits to one object all succeed; the last one wins whole.
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
	// ClearShards removes every shard result and span log, used when
	// starting a sweep from scratch over an old checkpoint. A directory
	// store also removes the partial writes that killed workers left of
	// them, so it must not run while a worker still writes to the sweep.
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

	// FetchSnapshot returns the warm-state snapshot artifact stored under
	// key (sim.SnapshotKey form), or an error wrapping os.ErrNotExist when
	// no worker has published it yet. Together with PushSnapshot this makes
	// every Store a sim.SnapshotStore, so warm-up sharing spans hosts
	// through the same backend the sweep's results flow through. The
	// returned buffer belongs to the caller, which may recycle it.
	FetchSnapshot(key string) ([]byte, error)
	// PushSnapshot publishes a snapshot artifact atomically. Snapshot bytes
	// are deterministic, so workers racing on one key commit identical
	// artifacts and either winner is correct. The store keeps no reference
	// to data after PushSnapshot returns, so the caller may recycle it.
	PushSnapshot(key string, data []byte) error
}

// SnapshotsDir is the key prefix warm-state snapshot artifacts live under,
// beside manifest.json, shards/ and spans/.
const SnapshotsDir = "snapshots"

// shardKey returns the object key of a shard's result JSONL.
func shardKey(sp ShardPlan) string { return ShardsDir + "/" + sp.Name + ".jsonl" }

// spanKey returns the object key of a span JSONL written under name.
func spanKey(name string) string { return SpansDir + "/" + name + ".jsonl" }

// backend is a store of whole byte objects under keys: blob.Dir, or
// objectClient over HTTP.
type backend interface {
	// Get returns the object under key. The error wraps os.ErrNotExist when
	// there is none.
	Get(key string) ([]byte, error)
	// Put commits data under key atomically, replacing any previous object.
	// It keeps no reference to data once it returns.
	Put(key string, data []byte) error
	// Head reports whether an object exists under key. A non-nil error
	// means existence could not be determined, never "absent".
	Head(key string) (bool, error)
	// Delete removes the object under key; an absent object is not an error.
	Delete(key string) error
	// List returns the keys under prefix, sorted.
	List(prefix string) ([]string, error)
}

// sweep is the checkpoint protocol, written once over a backend. Both
// Store implementations embed it and add only what differs between them:
// their location. Atomicity is the backend's: every object is committed
// whole by one Put.
type sweep struct{ b backend }

// LoadManifest reads and validates the sweep manifest.
func (s sweep) LoadManifest() (*Manifest, error) {
	data, err := s.b.Get(ManifestFile)
	if err != nil {
		return nil, fmt.Errorf("dispatch: reading manifest: %w", err)
	}
	return parseManifest(data)
}

// WriteManifest commits the manifest.
func (s sweep) WriteManifest(m *Manifest) error {
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	return s.b.Put(ManifestFile, data)
}

// ShardComplete reports whether the shard's result object exists.
func (s sweep) ShardComplete(sp ShardPlan) (bool, error) {
	ok, err := s.b.Head(shardKey(sp))
	if err != nil {
		return false, fmt.Errorf("dispatch: checking shard %s: %w", sp.Name, err)
	}
	return ok, nil
}

// WriteShardResults commits a shard's records as one JSONL object. The
// commit is the shard's completion marker: a worker killed mid-write leaves
// no object a resumed sweep could mistake for a finished shard.
func (s sweep) WriteShardResults(sp ShardPlan, recs []RunRecord) error {
	data, err := encodeShardResults(sp, recs)
	if err != nil {
		return err
	}
	return s.b.Put(shardKey(sp), data)
}

// LoadShardResults reads a completed shard's records and validates them
// against the plan.
func (s sweep) LoadShardResults(sp ShardPlan) ([]RunRecord, error) {
	data, err := s.b.Get(shardKey(sp))
	if err != nil {
		return nil, fmt.Errorf("dispatch: reading shard %s: %w", sp.Name, err)
	}
	return parseShardResults(sp, data)
}

// ClearShards deletes every object under shards/ and spans/, and on a
// backend that can hold them (blob.Dir) the temporaries of commits that
// killed workers left there. It runs before any worker of the sweep starts.
func (s sweep) ClearShards() error {
	for _, dir := range []string{ShardsDir, SpansDir} {
		if t, ok := s.b.(interface{ RemoveTemps(prefix string) error }); ok {
			if err := t.RemoveTemps(dir + "/"); err != nil {
				return err
			}
		}
		keys, err := s.b.List(dir + "/")
		if err != nil {
			return err
		}
		for _, key := range keys {
			if err := s.b.Delete(key); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteSpans commits a span log under name.
func (s sweep) WriteSpans(name string, data []byte) error { return s.b.Put(spanKey(name), data) }

// LoadSpans reads the span log written under name.
func (s sweep) LoadSpans(name string) ([]byte, error) { return s.b.Get(spanKey(name)) }

// FetchSnapshot returns the snapshot artifact under key (already content
// addressed, see sim.SnapshotKey); a miss wraps os.ErrNotExist.
func (s sweep) FetchSnapshot(key string) ([]byte, error) { return s.b.Get(SnapshotsDir + "/" + key) }

// PushSnapshot publishes a snapshot artifact, replacing any previous one
// (a damaged artifact is re-published over, never kept).
func (s sweep) PushSnapshot(key string, data []byte) error {
	return s.b.Put(SnapshotsDir+"/"+key, data)
}

// DirStore is the shared-directory store backend: the objects are files
// under the sweep directory, so a checkpoint directory written by earlier
// versions is a valid DirStore. Multi-host use requires the directory to be
// a shared filesystem (NFS or similar).
type DirStore struct {
	sweep
	dir string
}

// NewDirStore returns a store over the sweep directory dir.
func NewDirStore(dir string) *DirStore { return &DirStore{sweep{blob.Dir(dir)}, dir} }

// Location implements Store: the directory path itself.
func (s *DirStore) Location() string { return s.dir }

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
