package dispatch

import (
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
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
	// Concurrent is the number of leases the orchestrator runs at once:
	// the launcher's slots, capped at the pending shards. A launcher that
	// divides this machine over its workers divides it by this, so a
	// resume with one shard left gives that shard the whole machine. 0
	// means the launcher's Slots.
	Concurrent int
}

// WorkerArgv builds the `clgpsim worker` argv: `bin worker -store LOC
// -shard N -workers W`, plus `-span-parent ID` when spanParent is
// non-empty. It is the single home of the worker flag contract, so the
// contract cannot drift between local and remote workers.
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

// ProcessLauncher runs each shard as a `clgpsim worker` process: a child
// of this process when Hosts is empty, or over plain ssh on one of Hosts
// otherwise — no daemon, no scheduler. Workers communicate with the
// orchestrator only through the store, so a child worker is
// indistinguishable from one on another machine.
//
// Each host (this machine counts as one) runs up to PerHost workers at a
// time, and a shard goes to the least-loaded host outside the lease's
// excluded set, so a retried shard lands on a different machine than the
// one that just failed it whenever one exists.
//
// Remote workers must reach the store — in practice an ObjectStore URL,
// or a DirStore on a filesystem every host mounts at the same path — and
// the remote hosts need the clgpsim binary (Remote) and non-interactive
// ssh (keys or an agent).
type ProcessLauncher struct {
	// Store locates the sweep for the workers: its Location is passed as
	// -store.
	Store Store
	// Hosts are the ssh destinations ("host" or "user@host"); empty runs
	// the workers here, as children of this process.
	Hosts []string
	// PerHost is the number of concurrent workers per host; <= 0 selects
	// GOMAXPROCS for children and 1 per ssh host.
	PerHost int
	// Workers is the sim worker-pool size forwarded to each worker. <= 0
	// divides this machine's GOMAXPROCS over the concurrent children, and
	// forwards 0 to an ssh worker so the remote host sizes its own pool;
	// with PerHost > 1 that would let every worker claim the whole host, so
	// Validate rejects it.
	Workers int
	// Remote is the clgpsim binary on the ssh hosts; empty selects
	// "clgpsim". Children re-exec this process's executable.
	Remote string
	// Argv overrides the worker argv (tests use it to re-exec the test
	// binary); nil builds it through WorkerArgv.
	Argv func(store string, shard, workers int, spanParent string) []string

	mu    sync.Mutex
	cond  *sync.Cond
	inUse map[string]int
}

// localHost labels this machine, the one host of a launcher without Hosts.
const localHost = "child"

func (l *ProcessLauncher) hosts() []string {
	if len(l.Hosts) == 0 {
		return []string{localHost}
	}
	return l.Hosts
}

func (l *ProcessLauncher) perHost() int {
	switch {
	case l.PerHost > 0:
		return l.PerHost
	case len(l.Hosts) == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// Slots implements Launcher: concurrent workers over all hosts.
func (l *ProcessLauncher) Slots() int { return len(l.hosts()) * l.perHost() }

// Validate checks the launcher's configuration. The orchestrator calls it
// before planning anything, so a flag mistake fails the sweep immediately
// instead of being pushed through every shard's retry schedule.
func (l *ProcessLauncher) Validate() error {
	if l.Store == nil {
		return fmt.Errorf("dispatch: process launcher has no store")
	}
	if len(l.Hosts) > 0 && l.perHost() > 1 && l.Workers <= 0 {
		return fmt.Errorf("dispatch: ssh launcher with %d workers per host needs an explicit Workers pool size (0 would let each worker claim the whole host)", l.perHost())
	}
	return nil
}

// acquire blocks until a host with a free slot is available and claims it.
// Excluded hosts are skipped while any non-excluded host exists; when the
// exclusion covers every host (a small host list that all failed the
// shard), it is ignored — retrying somewhere beats never retrying.
func (l *ProcessLauncher) acquire(exclude map[string]bool) string {
	hosts := l.hosts()
	allExcluded := true
	for _, h := range hosts {
		if !exclude[h] {
			allExcluded = false
			break
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cond == nil {
		l.cond = sync.NewCond(&l.mu)
		l.inUse = make(map[string]int, len(hosts))
	}
	for {
		best := ""
		for _, h := range hosts {
			if exclude[h] && !allExcluded {
				continue
			}
			if l.inUse[h] < l.perHost() && (best == "" || l.inUse[h] < l.inUse[best]) {
				best = h
			}
		}
		if best != "" {
			l.inUse[best]++
			return best
		}
		l.cond.Wait()
	}
}

func (l *ProcessLauncher) release(host string) {
	l.mu.Lock()
	l.inUse[host]--
	l.cond.Broadcast()
	l.mu.Unlock()
}

// workerPool resolves the sim pool size forwarded to a worker. A child
// forwarding 0 would size its pool to the whole machine, oversubscribing
// it once per concurrent child, so children divide GOMAXPROCS over the
// leases that really run at once.
func (l *ProcessLauncher) workerPool(concurrent int) int {
	if l.Workers > 0 || len(l.Hosts) > 0 {
		return l.Workers
	}
	if concurrent <= 0 {
		concurrent = l.Slots()
	}
	return max(1, runtime.GOMAXPROCS(0)/concurrent)
}

// binary is the clgpsim executable a worker runs: this process's own for
// a child, Remote on an ssh host.
func (l *ProcessLauncher) binary() string {
	if len(l.Hosts) > 0 {
		if l.Remote != "" {
			return l.Remote
		}
		return "clgpsim"
	}
	if exe, err := os.Executable(); err == nil {
		return exe
	}
	return os.Args[0]
}

// Launch implements Launcher.
func (l *ProcessLauncher) Launch(m *Manifest, shard int, lease Lease) (string, error) {
	if err := l.Validate(); err != nil {
		return "", err
	}
	host := l.acquire(lease.Exclude)
	defer l.release(host)

	loc, workers := l.Store.Location(), l.workerPool(lease.Concurrent)
	var argv []string
	if l.Argv != nil {
		argv = l.Argv(loc, shard, workers, lease.SpanParent)
	} else {
		argv = WorkerArgv(l.binary(), loc, shard, workers, lease.SpanParent)
	}
	if len(l.Hosts) > 0 {
		argv = append([]string{"ssh", host}, argv...)
	}
	out, err := exec.Command(argv[0], argv[1:]...).CombinedOutput()
	if err != nil {
		return host, fmt.Errorf("dispatch: worker for %s on %s failed: %w\n%s", m.Shards[shard].Name, host, err, out)
	}
	return host, nil
}
