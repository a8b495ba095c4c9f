// Package dispatch is the sweep orchestration layer of the simulator: it
// turns a full evaluation grid (profiles × engines × L0 variants × cache
// sizes × technology nodes) into named, serialisable work units (shards),
// executes them through a pluggable Launcher, checkpoints one JSONL result
// object per shard through a pluggable Store so an interrupted sweep
// resumes by skipping committed shards, and merges the shard results back
// into the `internal/sim` Summary path.
//
// # The protocol
//
// A sweep is a manifest (the shard plan plus a hash of the full grid) and
// one results object per shard, every one committed atomically: a result
// either exists complete or not at all, so bare existence is the
// completion marker resume and retry both key on. The protocol is written
// once, over a five-verb byte-object backend —
//
//   - DirStore: files under the sweep directory (blob.Dir), in the
//     original layout (manifest.json, shards/, spans/, snapshots/);
//   - ObjectStore: the same keys behind an HTTP server (StoreServer, run
//     by `clgpsim store serve`, keeping them in a blob.Dir) with SHA-256
//     content integrity on every transfer, so workers need only a URL.
//
// Either way the commit is blob.Dir.Put: a unique temporary file renamed
// into place, so concurrent commits of one object all succeed.
//
// # Execution
//
// A Launcher turns a leased shard into running work: in the calling
// process (InProcessLauncher, the default), or as `clgpsim worker`
// processes (ProcessLauncher) — children of this process, or on a remote
// host list over ssh. The orchestrator leases pending shards over the
// launcher's slots, tells each lease how many run at once (a child divides
// this machine's cores by that), and applies a per-shard RetryPolicy —
// exponential backoff with jitter, plus an excluded-host set so a
// re-leased shard avoids the host that just failed it. Success is never
// taken from a launcher's word alone: the orchestrator verifies the
// shard's result object exists in the store after every launch.
package dispatch
