package harness

import (
	"runtime"
	"testing"
	"time"
)

// TestRunLeavesNoGoroutines runs an NFS cell, whose write-back flusher is
// a daemon parked on a mailbox when the workflow completes, and checks
// that no goroutine outlives the run to keep the cell's engine, network
// and caches reachable. Not parallel: the goroutine count is
// process-wide. An unwound goroutine can still be between its last
// channel send and its exit, so the count is polled for a second.
func TestRunLeavesNoGoroutines(t *testing.T) {
	w := replayWorkflow(t)
	base := runtime.NumGoroutine()
	if _, err := Run(RunConfig{App: "montage", Storage: "nfs", Workers: 2, Workflow: w}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestProvisionFollowsReplicateSeed pins the cluster's boot-delay stream
// to the replicate seed: two replicates of one cell provision in
// different times (provision_s), and rerunning a replicate reproduces
// its time exactly. A literal seed handed to cluster.New would pass
// every golden, since no golden records provision_s; this catches it.
func TestProvisionFollowsReplicateSeed(t *testing.T) {
	cfg := RunConfig{App: "montage", Storage: "nfs", Workers: 2, Workflow: replayWorkflow(t)}
	provision := func(rep int) float64 {
		t.Helper()
		r, err := Run(ReplicateConfig(cfg, rep))
		if err != nil {
			t.Fatal(err)
		}
		return r.ProvisionTime
	}
	a, b := provision(0), provision(1)
	if a == b {
		t.Errorf("replicates 0 and 1 provisioned in the same %g s: boot delays ignore the replicate seed", a)
	}
	if again := provision(1); again != b {
		t.Errorf("replicate 1 provisioned in %g s, then %g s on rerun", b, again)
	}
}
