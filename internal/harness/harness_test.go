package harness

import (
	"runtime"
	"testing"

	"ec2wfsim/internal/wms"
)

// TestRunLeavesNoGoroutines runs an NFS cell, whose write-back flusher is
// a daemon parked on a mailbox when the workflow completes, and checks
// that no goroutine outlives the run to keep the cell's engine, network
// and caches reachable. Not parallel: the goroutine count is
// process-wide. It is read right after the run, since a process's
// goroutine is gone by the time Run returns. The check is one-sided:
// the previous test's goroutine may still be exiting, which only lowers
// the count.
func TestRunLeavesNoGoroutines(t *testing.T) {
	w := replayWorkflow(t)
	base := runtime.NumGoroutine()
	if _, err := Run(RunConfig{App: "montage", Storage: "nfs", Workers: 2, Workflow: w}); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestRunEmptiesPageCaches: a result keeps its cluster for pricing, so
// Run must empty every node's page cache before it returns, or each kept
// result would hold every file its nodes cached. The cell fills both the
// clients' caches and the NFS server's.
func TestRunEmptiesPageCaches(t *testing.T) {
	r, err := Run(RunConfig{App: "montage", Storage: "nfs", Workers: 2, Workflow: replayWorkflow(t)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.CacheHits == 0 || r.Stats.ServerCacheHits == 0 {
		t.Fatalf("client/server cache hits = %d/%d: the cell never used its caches",
			r.Stats.CacheHits, r.Stats.ServerCacheHits)
	}
	for _, n := range r.Cluster.AllNodes() {
		if size := n.Cache.Size(); size != 0 {
			t.Errorf("%s still caches %g bytes after the run", n.Name, size)
		}
	}
}

// RunCached is the single-cell form of Sweep: like Run, but hitting (and
// filling) the process-wide cell cache.
func RunCached(cfg RunConfig) (*RunResult, error) {
	rs, err := Sweep([]RunConfig{cfg}, SweepOptions{Parallel: 1})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
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

// TestReplicateConfigSkipsMemo checks how a derived replicate is keyed:
// replicate 0 is the cell itself, while a replicate with Replicate > 0
// has no memo key (its hashed seeds are never requested again) but
// keeps a store key of its own, rendered from its reseeded spec.
func TestReplicateConfigSkipsMemo(t *testing.T) {
	cfg := RunConfig{App: "montage", Storage: "nfs", Workers: 2, Faults: wms.Faults{FailureRate: 0.1}}
	if got := ReplicateConfig(cfg, 0); got != cfg || CellKey(got) == "" {
		t.Errorf("replicate 0 = %+v with key %q, want the cell itself", got, CellKey(got))
	}
	rep := ReplicateConfig(cfg, 2)
	if rep.Replicate != 2 {
		t.Errorf("ReplicateConfig(cfg, 2).Replicate = %d", rep.Replicate)
	}
	if key := CellKey(rep); key != "" {
		t.Errorf("derived replicate memoized under %q", key)
	}
	store, ok := CacheKey(rep)
	plain := rep
	plain.Replicate = 0
	if !ok || store.Cell != CellKey(plain) || store.Cell == CellKey(cfg) {
		t.Errorf("replicate store key %+v (ok=%t), want its reseeded spec's key %q", store, ok, CellKey(plain))
	}
}
