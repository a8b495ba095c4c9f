package dispatch

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// faultLauncher injects worker deaths: the first fails leases of shard
// target error out (each reporting a distinct dead host, as a real fleet
// would), and every other lease delegates to the wrapped launcher.
type faultLauncher struct {
	inner  Launcher
	target int
	fails  int

	mu     sync.Mutex
	leases map[int]int
}

func (f *faultLauncher) Slots() int { return f.inner.Slots() }

func (f *faultLauncher) Launch(m *Manifest, shard int, lease Lease) (string, error) {
	f.mu.Lock()
	if f.leases == nil {
		f.leases = make(map[int]int)
	}
	n := f.leases[shard]
	f.leases[shard]++
	f.mu.Unlock()
	if shard == f.target && n < f.fails {
		host := fmt.Sprintf("dead-host-%d", n)
		if lease.Exclude[host] {
			return host, fmt.Errorf("re-leased to an excluded host %s", host)
		}
		return host, fmt.Errorf("injected worker death on %s (lease %d)", host, n+1)
	}
	return f.inner.Launch(m, shard, lease)
}

// fastRetry keeps test backoffs in the microsecond range.
var fastRetry = RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}

// TestRetryRecoversFromWorkerDeaths is the PR's acceptance criterion: a
// sweep over the object store whose launcher kills shard 1's worker on its
// first two leases must converge to a merged summary bit-identical to the
// clean shared-directory run.
func TestRetryRecoversFromWorkerDeaths(t *testing.T) {
	specs := testGrid(t)

	// The clean reference: shared-directory store, no faults.
	clean := &Orchestrator{Store: NewDirStore(t.TempDir()), Workers: 2}
	cleanOut, err := clean.Run(specs, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	cleanSum := cleanOut.Summary()

	// The faulty run: object store, shard 1's worker dies twice.
	st := newTestObjectStore(t)
	o := &Orchestrator{
		Store:    st,
		Launcher: &faultLauncher{inner: &InProcessLauncher{Store: st, Workers: 2}, target: 1, fails: 2},
		Retry:    fastRetry,
	}
	out, err := o.Run(specs, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Retries != 2 {
		t.Errorf("outcome reports %d retries, want 2", out.Retries)
	}
	sum := out.Summary()
	// Bit-identical simulated work; wall time is the only legitimate
	// difference between the two summaries.
	cleanSum.Wall, sum.Wall = 0, 0
	if sum != cleanSum {
		t.Errorf("fault-injected summary %+v differs from clean run %+v", sum, cleanSum)
	}
	// And per-job, not just in aggregate.
	checkAgainstBaseline(t, runBaseline(t, specs), out)
}

// TestRetryExhaustionFailsLoudly: a shard that dies more times than the
// budget allows must fail the sweep with the lease count in the error, not
// hang or silently drop the shard — and shards committed before the
// failure survive into a resume, while shards after it are never started
// (fail fast).
func TestRetryExhaustionFailsLoudly(t *testing.T) {
	specs := testGrid(t)
	st := NewDirStore(t.TempDir())
	// Shard 1 of 4 always dies (the launcher is serial, so shard 0 commits
	// first and shards 2/3 are behind the failure).
	o := &Orchestrator{
		Store:    st,
		Launcher: &faultLauncher{inner: &InProcessLauncher{Store: st, Workers: 1}, target: 1, fails: 99},
		Retry:    fastRetry,
	}
	_, err := o.Run(specs, 4, false)
	if err == nil || !strings.Contains(err.Error(), "after 3 attempt") {
		t.Fatalf("exhausted retries error = %v, want lease count", err)
	}
	// The interrupted sweep still resumes: shard 0 committed before the
	// failure and is skipped; the failed shard and the fail-fast-skipped
	// shards behind it re-run under a fixed launcher.
	o2 := &Orchestrator{Store: st, Workers: 2}
	out, err := o2.Run(specs, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Skipped) != 1 || len(out.Ran) != 3 {
		t.Errorf("resume after retry exhaustion skipped %v / ran %v, want 1 skipped / 3 ran", out.Skipped, out.Ran)
	}
	checkAgainstBaseline(t, runBaseline(t, specs), out)
}

// TestLauncherSuccessWithoutCommitIsFailure: a worker that exits cleanly
// without its result object in the store is a failure the retry budget
// absorbs — exit status is not the completion signal, the commit is.
func TestLauncherSuccessWithoutCommitIsFailure(t *testing.T) {
	specs := testGrid(t)
	st := NewDirStore(t.TempDir())
	o := &Orchestrator{
		Store:    st,
		Launcher: &noCommitLauncher{},
		Retry:    RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond},
	}
	_, err := o.Run(specs, 1, false)
	if err == nil || !strings.Contains(err.Error(), "without committing") {
		t.Fatalf("uncommitted success error = %v", err)
	}
}

// noCommitLauncher reports success but never writes results.
type noCommitLauncher struct{}

func (l *noCommitLauncher) Slots() int { return 1 }
func (l *noCommitLauncher) Launch(m *Manifest, shard int, lease Lease) (string, error) {
	return "liar", nil
}

func TestBackoffScheduleGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{Attempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for retry := 0; retry < 8; retry++ {
		want := p.BaseDelay << retry
		if want > p.MaxDelay {
			want = p.MaxDelay
		}
		for i := 0; i < 20; i++ {
			got := p.Backoff(retry)
			if got < want/2 || got > want {
				t.Fatalf("Backoff(%d) = %v outside [%v, %v]", retry, got, want/2, want)
			}
		}
	}
	// Zero-value policy must still produce sane delays.
	if d := (RetryPolicy{}).Backoff(0); d <= 0 || d > time.Second {
		t.Errorf("zero-value Backoff(0) = %v", d)
	}
}

// sshFakeScript builds a stand-in ssh client: it drops the destination
// argument and execs the remote command locally, refusing connections to
// the host named "bad".
func sshFakeScript(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake-ssh")
	script := "#!/bin/sh\nhost=\"$1\"; shift\nif [ \"$host\" = \"bad\" ]; then echo \"connect to host bad: connection refused\" >&2; exit 255; fi\nexec \"$@\"\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSSHLauncherExcludesFailedHost: with hosts {bad, good}, the shard that
// lands on the dead host is re-leased — with bad excluded — onto good, and
// the merged results match the baseline exactly.
func TestSSHLauncherExcludesFailedHost(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning launcher in -short mode")
	}
	specs := testGrid(t)
	baseline := runBaseline(t, specs)
	dir := t.TempDir()
	st := NewDirStore(dir)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	o := &Orchestrator{
		Store: st,
		Launcher: &SSHLauncher{
			Hosts: []string{"bad", "good"},
			SSH:   sshFakeScript(t),
			Store: st,
			Argv: func(store string, shard, workers int, spanParent string) []string {
				return []string{exe, "-test.run", "TestHelperWorkerProcess", "--",
					store, strconv.Itoa(shard), strconv.Itoa(workers)}
			},
		},
		Retry:  fastRetry,
		Logger: testLogger(t),
	}
	out, err := o.Run(specs, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Retries == 0 {
		t.Errorf("no lease ever hit the dead host (retries = 0); exclusion untested")
	}
	checkAgainstBaseline(t, baseline, out)
}

// TestSSHAcquireFallsBackWhenAllExcluded: a fully excluded host list must
// still yield a host (retrying somewhere beats never retrying), not
// deadlock.
func TestSSHAcquireFallsBackWhenAllExcluded(t *testing.T) {
	l := &SSHLauncher{Hosts: []string{"a", "b"}}
	host := l.acquire(map[string]bool{"a": true, "b": true})
	if host != "a" && host != "b" {
		t.Fatalf("acquire returned %q", host)
	}
	l.release(host)
}
