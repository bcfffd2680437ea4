package wms

import (
	"fmt"
	"testing"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// deploy builds an engine, cluster and storage system ready to run.
func deploy(t *testing.T, sysName string, workers int) (*sim.Engine, *cluster.Cluster, storage.System) {
	t.Helper()
	sys, err := storage.ByName(sysName)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := cluster.New(e, net, rng.New(3), cluster.Config{
		Workers:    workers,
		WorkerType: cluster.C1XLarge(),
		Extra:      sys.ExtraNodeTypes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &storage.Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(5)}
	if err := sys.Init(env); err != nil {
		t.Fatal(err)
	}
	return e, c, sys
}

// chainWorkflow builds a linear chain of n compute-only tasks.
func chainWorkflow(t *testing.T, n int, runtime float64) *workflow.Workflow {
	t.Helper()
	w := workflow.New("chain")
	var prev *workflow.File
	for i := 0; i < n; i++ {
		task := &workflow.Task{
			ID:             fmt.Sprintf("t%d", i),
			Transformation: "step",
			Runtime:        runtime,
			Outputs:        []*workflow.File{w.File(fmt.Sprintf("f%d", i), units.MB)},
		}
		if prev != nil {
			task.Inputs = []*workflow.File{prev}
		}
		prev = task.Outputs[0]
		w.AddTask(task)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

// fanWorkflow builds n independent tasks.
func fanWorkflow(t *testing.T, n int, runtime, memBytes float64) *workflow.Workflow {
	t.Helper()
	w := workflow.New("fan")
	for i := 0; i < n; i++ {
		w.AddTask(&workflow.Task{
			ID:             fmt.Sprintf("t%d", i),
			Transformation: "work",
			Runtime:        runtime,
			PeakMemory:     memBytes,
			Outputs:        []*workflow.File{w.File(fmt.Sprintf("o%d", i), units.MB)},
		})
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestChainRunsSequentially(t *testing.T) {
	e, c, sys := deploy(t, "local", 1)
	w := chainWorkflow(t, 10, 5)
	res, err := Run(e, Options{Cluster: c, Storage: sys}, w)
	if err != nil {
		t.Fatal(err)
	}
	// 10 tasks x (5 s compute + overheads); a chain cannot parallelize.
	if res.Makespan < 50 {
		t.Errorf("makespan %.1f < serial compute 50", res.Makespan)
	}
	if res.Makespan > 60 {
		t.Errorf("makespan %.1f; overheads too large for 10 tasks", res.Makespan)
	}
	if len(res.Spans) != 10 {
		t.Errorf("spans = %d, want 10", len(res.Spans))
	}
}

func TestFanUsesAllCores(t *testing.T) {
	e, c, sys := deploy(t, "local", 1)
	w := fanWorkflow(t, 16, 10, 100*units.MB)
	res, err := Run(e, Options{Cluster: c, Storage: sys}, w)
	if err != nil {
		t.Fatal(err)
	}
	// 16 tasks of 10 s on 8 cores: two waves, ~20 s + overheads.
	if res.Makespan < 20 || res.Makespan > 25 {
		t.Errorf("makespan = %.1f, want ~20-25 (two waves on 8 cores)", res.Makespan)
	}
	if u := res.Utilization(c); u < 0.75 {
		t.Errorf("utilization = %.2f, want high for an embarrassingly parallel fan", u)
	}
}

func TestMemoryLimitingThrottlesConcurrency(t *testing.T) {
	// 8 tasks of 4.2 GiB each on a 7 GiB node: only one runs at a time
	// even though 8 cores are free.
	e, c, sys := deploy(t, "local", 1)
	w := fanWorkflow(t, 8, 10, 4.2*units.GiB)
	res, err := Run(e, Options{Cluster: c, Storage: sys}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 80 {
		t.Errorf("makespan = %.1f, want >= 80 (memory serializes 8x10s tasks)", res.Makespan)
	}
	if res.MemoryWaits == 0 {
		t.Error("no memory waits recorded despite oversubscription")
	}
	// The same fan with tasks that all fit in memory: 10s, one wave.
	e2, c2, sys2 := deploy(t, "local", 1)
	w2 := fanWorkflow(t, 8, 10, 0.5*units.GiB)
	res2, err := Run(e2, Options{Cluster: c2, Storage: sys2}, w2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan > 15 {
		t.Errorf("fitting fan makespan = %.1f, want ~10-12 (one wave)", res2.Makespan)
	}
	if res2.MemoryWaits != 0 {
		t.Errorf("fitting fan recorded %d memory waits, want 0", res2.MemoryWaits)
	}
}

func TestTaskLargerThanAnyNodeRejected(t *testing.T) {
	e, c, sys := deploy(t, "local", 1)
	w := fanWorkflow(t, 1, 1, 16*units.GiB)
	if _, err := Run(e, Options{Cluster: c, Storage: sys}, w); err == nil {
		t.Error("expected error for task larger than node memory")
	}
}

func TestMultiNodeScalesFan(t *testing.T) {
	mk := func(workers int) float64 {
		e, c, sys := deploy(t, "gluster-nufa", workers)
		w := fanWorkflow(t, 64, 10, 100*units.MB)
		res, err := Run(e, Options{Cluster: c, Storage: sys}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	two, eight := mk(2), mk(8)
	if ratio := two / eight; ratio < 3 {
		t.Errorf("2->8 node speedup = %.1fx, want ~4x for a compute fan", ratio)
	}
}

func TestRunValidation(t *testing.T) {
	e, c, sys := deploy(t, "local", 1)
	w := workflow.New("unfinalized")
	w.AddTask(&workflow.Task{ID: "x"})
	if _, err := Run(e, Options{Cluster: c, Storage: sys}, w); err == nil {
		t.Error("expected error for unfinalized workflow")
	}
	fin := chainWorkflow(t, 1, 1)
	if _, err := Run(e, Options{Storage: sys}, fin); err == nil {
		t.Error("expected error for missing cluster")
	}
	if _, err := Run(e, Options{Cluster: c}, fin); err == nil {
		t.Error("expected error for missing storage")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() float64 {
		e, c, sys := deploy(t, "nfs", 2)
		w, err := apps.Montage(apps.MontageConfig{Images: 30})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(e, Options{Cluster: c, Storage: sys}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("same configuration gave different makespans: %g vs %g", a, b)
	}
}

// Smoke test: every registered storage system can run a scaled-down
// version of every application without deadlock, and all tasks complete.
func TestAllSystemsRunAllApps(t *testing.T) {
	for _, sysName := range storage.Names() {
		for _, appName := range apps.Names() {
			sysName, appName := sysName, appName
			t.Run(sysName+"/"+appName, func(t *testing.T) {
				var w *workflow.Workflow
				var err error
				switch appName {
				case "montage":
					w, err = apps.Montage(apps.MontageConfig{Images: 24})
				case "broadband":
					w, err = apps.Broadband(apps.BroadbandConfig{Sources: 2, Sites: 2})
				case "epigenome":
					w, err = apps.Epigenome(apps.EpigenomeConfig{Lanes: 1, ChunksPerLane: 6})
				}
				if err != nil {
					t.Fatal(err)
				}
				workers := 2
				if sysName == "local" {
					workers = 1
				}
				e, c, sys := deploy(t, sysName, workers)
				res, err := Run(e, Options{Cluster: c, Storage: sys}, w)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Spans) != len(w.Tasks) {
					t.Errorf("completed %d of %d tasks", len(res.Spans), len(w.Tasks))
				}
				if res.Makespan <= 0 {
					t.Error("non-positive makespan")
				}
			})
		}
	}
}

func TestDataAwareSchedulerReducesTraffic(t *testing.T) {
	traffic := func(aware bool) float64 {
		e, c, sys := deploy(t, "gluster-nufa", 4)
		w, err := apps.Broadband(apps.BroadbandConfig{Sources: 2, Sites: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(e, Options{Cluster: c, Storage: sys, DataAware: aware}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res.StorageStats.NetworkBytes
	}
	blind, aware := traffic(false), traffic(true)
	if aware >= blind {
		t.Errorf("data-aware traffic %.2e >= blind %.2e; locality scheduling not helping",
			aware, blind)
	}
}
