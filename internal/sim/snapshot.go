// Warm-state snapshot plumbing for the batch layer: a small store interface
// the runner publishes/fetches snapshots through, a directory-backed
// implementation, and the content-addressed key shared with the dispatch
// store backends.
package sim

import (
	"fmt"

	"clgp/internal/blob"
	"clgp/internal/core"
	"clgp/internal/freelist"
	"clgp/internal/workload"
)

// SnapshotStore publishes and fetches warm-state snapshot artifacts by key.
// dispatch.Store (both the directory and object backends) satisfies it, as
// does DirSnapshots for store-less local runs.
//
// Snapshot bytes change hands under an ownership contract that lets a sweep
// recycle them (see Job.WarmStart): a fetched buffer belongs to the caller,
// and a pushed one is the store's only until PushSnapshot returns.
type SnapshotStore interface {
	// FetchSnapshot returns the snapshot stored under key, or an error
	// wrapping os.ErrNotExist when the store has none. The returned buffer
	// belongs to the caller: the store keeps no reference to it and never
	// hands it out again.
	FetchSnapshot(key string) ([]byte, error)
	// PushSnapshot stores data under key. Publishing the same key twice is
	// allowed (snapshot bytes are deterministic, so concurrent recorders
	// racing on a key write identical artifacts). The store keeps no
	// reference to data after PushSnapshot returns, so the caller may
	// overwrite it at once.
	PushSnapshot(key string, data []byte) error
}

// SnapshotKey is the content address of a warm-state snapshot: workload
// fingerprint × warm-configuration key × warm-up boundary. Grid points that
// share all three share the artifact and pay warm-up once.
func SnapshotKey(fingerprint, warmKey uint64, warmup int) string {
	return fmt.Sprintf("%016x-%016x-c%d.clgs", fingerprint, warmKey, warmup)
}

// DirSnapshots stores snapshots as files in a directory, each committed
// atomically by blob.Dir so concurrent recorders never expose a torn
// artifact.
type DirSnapshots struct {
	// Dir is the snapshot directory; it is created on first push.
	Dir string
}

// FetchSnapshot implements SnapshotStore.
func (s DirSnapshots) FetchSnapshot(key string) ([]byte, error) { return blob.Dir(s.Dir).Get(key) }

// PushSnapshot implements SnapshotStore.
func (s DirSnapshots) PushSnapshot(key string, data []byte) error {
	return blob.Dir(s.Dir).Put(key, data)
}

// WarmStart applies the job's warm-up policy to a freshly built engine: on a
// snapshot-store hit the engine restores and skips warm-up entirely; on a
// miss it simulates through warm-up, publishes the snapshot for the rest of
// the grid, and continues — which is exactly a straight-through run plus one
// serialisation, so the recording shard's results stay bit-identical too.
// It returns the engine to continue with (a fresh replacement when a damaged
// cached artifact had to be discarded; the discarded engine is released, so
// the caller must continue with the returned one only). The runner calls it
// per job; it is exported for drivers that hold their own engine (clgpsim
// run).
//
// The snapshot's bytes are handed back to freelist.Artifacts once the store
// has them (after PushSnapshot returns) or once Restore is done with them,
// whether it succeeded or not, so the next job seals or reads its snapshot
// into the same buffer.
func (j Job) WarmStart(eng *core.Engine, src core.TraceSource) (*core.Engine, error) {
	warm := uint64(j.Warmup)
	if warm >= uint64(src.Len()) {
		// Warm-up covers the whole run: nothing worth checkpointing.
		return eng, nil
	}
	fp := workload.Fingerprint(j.Workload.Profile, j.Workload.Dict)
	key := SnapshotKey(fp, j.Config.WarmKey(), j.Warmup)
	if data, err := j.Snapshots.FetchSnapshot(key); err == nil {
		rerr := eng.Restore(data, j.Workload.Name, fp)
		// Restore copies what it keeps out of data.
		freelist.Artifacts.Put(data)
		if rerr == nil {
			return eng, nil
		}
		// Damaged or mismatched artifact: discard the partially restored
		// engine and fall back to the cold path. The trace source is
		// untouched — Restore only advances it after full validation — so a
		// replacement engine starts clean, on the discarded one's tables.
		eng.Release()
		eng, err = core.NewEngine(j.Config, j.Workload.Dict, src)
		if err != nil {
			return nil, err
		}
	}
	// Miss (or unreachable store, treated as a miss — the cache is
	// best-effort): pay warm-up once and publish.
	if err := eng.RunUntilCommitted(warm); err != nil {
		return nil, err
	}
	data, err := eng.Snapshot(j.Workload.Name, fp)
	if err != nil {
		return nil, err
	}
	// Publication is best-effort: a full disk or unreachable store costs the
	// grid its warm-up sharing, not the run its results.
	_ = j.Snapshots.PushSnapshot(key, data)
	freelist.Artifacts.Put(data)
	return eng, nil
}
