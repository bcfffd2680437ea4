package wms

import (
	"fmt"
	"testing"
	"testing/quick"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// spanByTask indexes a result's successful spans (failed attempts are
// also recorded, but precedence is defined by completions).
func spanByTask(res *Result) map[*workflow.Task]Span {
	m := make(map[*workflow.Task]Span, len(res.Spans))
	for _, s := range res.Spans {
		if !s.Failed {
			m[s.Task] = s
		}
	}
	return m
}

// checkPrecedence verifies the fundamental scheduling invariant: no task
// starts before every parent has published its outputs.
func checkPrecedence(t *testing.T, w *workflow.Workflow, res *Result) {
	t.Helper()
	spans := spanByTask(res)
	violations := 0
	for _, task := range w.Tasks {
		child, ok := spans[task]
		if !ok {
			t.Fatalf("task %s never ran", task.ID)
		}
		for _, parent := range task.Parents() {
			p, ok := spans[parent]
			if !ok {
				t.Fatalf("parent %s of %s never ran", parent.ID, task.ID)
			}
			if child.Start < p.WriteEnd-1e-9 {
				violations++
				if violations <= 3 {
					t.Errorf("precedence violated: %s started at %.3f before parent %s finished at %.3f",
						task.ID, child.Start, parent.ID, p.WriteEnd)
				}
			}
		}
	}
	if violations > 3 {
		t.Errorf("... and %d more precedence violations", violations-3)
	}
}

// checkMakespanBounds verifies makespan >= critical path (compute only)
// and >= total-work / total-cores, and that every span fits inside the
// makespan.
func checkMakespanBounds(t *testing.T, w *workflow.Workflow, res *Result, cores int) {
	t.Helper()
	if cp := w.CriticalPathTime(); res.Makespan < cp-1e-6 {
		t.Errorf("makespan %.1f below compute critical path %.1f", res.Makespan, cp)
	}
	total := 0.0
	for _, task := range w.Tasks {
		total += task.Runtime
	}
	if lb := total / float64(cores); res.Makespan < lb-1e-6 {
		t.Errorf("makespan %.1f below work bound %.1f", res.Makespan, lb)
	}
	for _, s := range res.Spans {
		if s.WriteEnd > res.Makespan+1e-9 {
			t.Errorf("span of %s ends at %.3f after makespan %.3f", s.Task.ID, s.WriteEnd, res.Makespan)
		}
		if !(s.Start <= s.Exec && s.Exec <= s.WriteEnd) {
			t.Errorf("span of %s is not ordered: %v", s.Task.ID, s)
		}
	}
}

// Every storage system must preserve precedence and makespan bounds on a
// mid-size Montage instance.
func TestInvariantsAcrossStorageSystems(t *testing.T) {
	for _, sysName := range []string{"local", "nfs", "gluster-nufa", "gluster-dist", "pvfs", "s3", "xtreemfs"} {
		sysName := sysName
		t.Run(sysName, func(t *testing.T) {
			workers := 2
			if sysName == "local" {
				workers = 1
			}
			e, c, sys := deploy(t, sysName, workers)
			w, err := apps.Montage(apps.MontageConfig{Images: 60})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(e, Options{Cluster: c, Storage: sys}, w)
			if err != nil {
				t.Fatal(err)
			}
			checkPrecedence(t, w, res)
			checkMakespanBounds(t, w, res, c.TotalCores())
		})
	}
}

// Invariants must also hold with failure injection and the data-aware
// scheduler — the code paths that reorder execution most aggressively.
func TestInvariantsUnderFailuresAndLocality(t *testing.T) {
	e, c, sys := deploy(t, "gluster-nufa", 4)
	w, err := apps.Broadband(apps.BroadbandConfig{Sources: 2, Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, Options{
		Cluster:   c,
		Storage:   sys,
		DataAware: true,
		Faults:    Faults{FailureRate: 0.15},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	checkPrecedence(t, w, res)
	checkMakespanBounds(t, w, res, c.TotalCores())
}

// Property: random DAGs of compute-only tasks always satisfy precedence
// and bounds on a 2-node gluster deployment.
func TestPropertyRandomDAGInvariants(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		nTasks := int(n%40) + 2
		w := randomWorkflow(seed, nTasks)
		e, c, sys := deployRaw(seed, "gluster-nufa", 2)
		res, err := Run(e, Options{Cluster: c, Storage: sys}, w)
		if err != nil {
			return false
		}
		spans := spanByTask(res)
		for _, task := range w.Tasks {
			child := spans[task]
			for _, parent := range task.Parents() {
				if child.Start < spans[parent].WriteEnd-1e-9 {
					return false
				}
			}
		}
		return res.Makespan >= w.CriticalPathTime()-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// randomWorkflow builds a random layered DAG with small files and short
// runtimes (test helper for the property checks).
func randomWorkflow(seed uint64, nTasks int) *workflow.Workflow {
	r := rng.New(seed)
	w := workflow.New("random")
	var produced []*workflow.File
	for i := 0; i < nTasks; i++ {
		task := &workflow.Task{
			ID:             fmt.Sprintf("t%d", i),
			Transformation: "t",
			Runtime:        float64(r.Intn(20) + 1),
			PeakMemory:     float64(r.Intn(512)+64) * units.MB,
		}
		for k := 0; k < 2 && len(produced) > 0; k++ {
			task.Inputs = append(task.Inputs, produced[r.Intn(len(produced))])
		}
		out := w.File(fmt.Sprintf("f%d", i), float64(r.Intn(20)+1)*units.MB)
		task.Outputs = []*workflow.File{out}
		produced = append(produced, out)
		w.AddTask(task)
	}
	if err := w.Finalize(); err != nil {
		panic(err)
	}
	return w
}

// deployRaw is deploy without a testing.T, for quick.Check properties.
func deployRaw(seed uint64, sysName string, workers int) (*sim.Engine, *cluster.Cluster, storage.System) {
	sys, err := storage.ByName(sysName)
	if err != nil {
		panic(err)
	}
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := cluster.New(e, net, rng.New(seed+1), cluster.Config{
		Workers:    workers,
		WorkerType: cluster.C1XLarge(),
		Extra:      sys.ExtraNodeTypes(),
	})
	if err != nil {
		panic(err)
	}
	env := &storage.Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(seed + 2)}
	if err := sys.Init(env); err != nil {
		panic(err)
	}
	return e, c, sys
}

// checkNetQuiescent pins the flow-graph invariant the solver relies on
// between workflows: once a run completes, the transfer graph is drained —
// no active transfers, and every cluster resource reports zero committed
// load. The solver only visits resources that active transfers cross, so
// a stale load on an idle resource would never be corrected, and a leaked
// membership would poison the solve of whatever runs on the network next.
func checkNetQuiescent(t *testing.T, net *flow.Net, c *cluster.Cluster) {
	t.Helper()
	if n := net.Active(); n != 0 {
		t.Errorf("net still has %d active transfers after the run", n)
	}
	nodes := append(append([]*cluster.Node{}, c.Workers...), c.Extra...)
	for _, node := range nodes {
		for _, r := range []*flow.Resource{
			node.NICIn, node.NICOut,
			node.Disk.ReadResource(), node.Disk.WriteResource(),
		} {
			if r.Load() != 0 {
				t.Errorf("%s: residual load %g after the run, want 0", r.Name(), r.Load())
			}
		}
	}
}

// TestNetworkQuiescentAfterRun runs a workflow on every storage system
// (their transfer registration paths differ: plain transfers, capped
// connections, batched PVFS fan-outs) and asserts the flow graph drains:
// a stale load or a leaked transfer would surface here as residual load
// or a live transfer.
func TestNetworkQuiescentAfterRun(t *testing.T) {
	for _, sysName := range []string{"local", "nfs", "gluster-nufa", "gluster-dist", "pvfs", "s3", "xtreemfs"} {
		sysName := sysName
		t.Run(sysName, func(t *testing.T) {
			t.Parallel()
			sys, err := storage.ByName(sysName)
			if err != nil {
				t.Fatal(err)
			}
			workers := 2
			if sysName == "local" {
				workers = 1
			}
			e := sim.NewEngine()
			net := flow.NewNet(e)
			c, err := cluster.New(e, net, rng.New(7), cluster.Config{
				Workers:    workers,
				WorkerType: cluster.C1XLarge(),
				Extra:      sys.ExtraNodeTypes(),
			})
			if err != nil {
				t.Fatal(err)
			}
			env := &storage.Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(8)}
			if err := sys.Init(env); err != nil {
				t.Fatal(err)
			}
			w, err := apps.Montage(apps.MontageConfig{Images: 30})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(e, Options{Cluster: c, Storage: sys}, w); err != nil {
				t.Fatal(err)
			}
			checkNetQuiescent(t, net, c)
			if net.TotalTransfers == 0 {
				t.Error("workflow moved no data through the flow network")
			}
		})
	}
}
