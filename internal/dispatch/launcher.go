package dispatch

import (
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// Launcher is how the orchestrator turns a leased shard into running work.
// Implementations span the locality spectrum — same process, re-exec'd
// child process, ssh to another host — behind one contract: Launch executes
// the shard to completion, committing its results to the sweep's store, and
// does not return success until the commit happened (the orchestrator
// independently verifies ShardComplete afterwards, so a launcher cannot
// accidentally report a shard done that is not).
type Launcher interface {
	// Slots is the number of shards the launcher can execute concurrently;
	// the orchestrator runs at most this many leases at once.
	Slots() int
	// Launch executes shard id of the manifest to completion under the
	// given lease. The returned host labels the execution slot used,
	// feeding logs and the caller's excluded-host set.
	Launch(m *Manifest, shard int, lease Lease) (host string, err error)
}

// Lease carries the per-attempt context the orchestrator hands a launcher:
// which hosts to avoid and where this attempt sits in the sweep's span
// trace. The zero Lease is valid (first attempt, no exclusions, no
// tracing), so tests and direct callers need not populate it.
type Lease struct {
	// Attempt is the zero-based retry ordinal of this launch.
	Attempt int
	// Exclude names hosts this lease must avoid — hosts that already
	// failed the same shard — which multi-host launchers honour when an
	// alternative exists; single-host launchers may ignore it (retrying
	// locally is the only option).
	Exclude map[string]bool
	// SpanParent is the attempt span's ID, threaded to RunShard (via
	// -span-parent for spawned workers) so the lease's phase spans parent
	// correctly in the stitched trace.
	SpanParent string
}

// WorkerArgv builds the `clgpsim worker` argv for any launcher that spawns
// worker processes: `bin worker -store LOC -shard N -workers W`, plus
// `-span-parent ID` when spanParent is non-empty. It is the single home of
// the worker flag contract — DefaultWorkerArgv and the ssh launcher both
// build through it, so the contract cannot drift between local and remote
// spawning.
func WorkerArgv(bin, store string, shard, workers int, spanParent string) []string {
	argv := []string{bin, "worker",
		"-store", store,
		"-shard", strconv.Itoa(shard),
		"-workers", strconv.Itoa(workers),
	}
	if spanParent != "" {
		argv = append(argv, "-span-parent", spanParent)
	}
	return argv
}

// DefaultWorkerArgv builds the child argv used by process-spawning
// launchers when no Argv override is set: the current executable re-exec'd
// through the WorkerArgv contract. store is the store location in -store
// form (a sweep directory or an http(s) base URL).
func DefaultWorkerArgv(store string, shard, workers int, spanParent string) []string {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	return WorkerArgv(exe, store, shard, workers, spanParent)
}

// InProcessLauncher runs shards inside the calling process, one at a time,
// parallelising within each shard via the sim worker pool. It is the
// zero-infrastructure baseline every other launcher is measured against:
// identical results, no process or network boundary.
type InProcessLauncher struct {
	// Store receives the shard results.
	Store Store
	// Workers is the sim worker-pool size per shard (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// Logger receives span-log diagnostics; nil is silent.
	Logger *slog.Logger
}

// Slots implements Launcher: one shard at a time (each shard already
// saturates the machine through the sim pool).
func (l *InProcessLauncher) Slots() int { return 1 }

// Launch implements Launcher.
func (l *InProcessLauncher) Launch(m *Manifest, shard int, lease Lease) (string, error) {
	const host = "in-process"
	_, err := RunShard(l.Store, m, shard, l.Workers, host, lease.SpanParent, l.Logger)
	return host, err
}

// ChildLauncher re-execs a worker process per shard and runs up to Parallel
// of them concurrently. Workers communicate with the orchestrator only
// through the store, which is the same protocol remote launchers use — a
// child worker is indistinguishable from one on another machine.
type ChildLauncher struct {
	// Store locates the sweep for spawned workers (its Location is passed
	// as -store) and verifies their commits.
	Store Store
	// Argv overrides the worker argv built for a shard (tests use it to
	// re-exec the test binary); nil selects DefaultWorkerArgv.
	Argv func(store string, shard, workers int, spanParent string) []string
	// Parallel is the number of concurrently running children (<= 0 selects
	// GOMAXPROCS).
	Parallel int
	// Workers is the sim worker-pool size forwarded to each child; <= 0
	// divides GOMAXPROCS evenly over the slots so concurrent children do
	// not oversubscribe the machine.
	Workers int
}

// Slots implements Launcher.
func (l *ChildLauncher) Slots() int {
	if l.Parallel > 0 {
		return l.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// workerPool resolves the per-child sim pool size: forwarding 0 verbatim
// would make every child size its own pool to the whole machine,
// oversubscribing it Slots()-fold.
func (l *ChildLauncher) workerPool() int {
	if l.Workers > 0 {
		return l.Workers
	}
	w := runtime.GOMAXPROCS(0) / l.Slots()
	if w < 1 {
		w = 1
	}
	return w
}

// Launch implements Launcher.
func (l *ChildLauncher) Launch(m *Manifest, shard int, lease Lease) (string, error) {
	const host = "child"
	argvFor := l.Argv
	if argvFor == nil {
		argvFor = DefaultWorkerArgv
	}
	argv := argvFor(l.Store.Location(), shard, l.workerPool(), lease.SpanParent)
	cmd := exec.Command(argv[0], argv[1:]...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return host, fmt.Errorf("dispatch: worker for %s failed: %w\n%s", m.Shards[shard].Name, err, out)
	}
	return host, nil
}
