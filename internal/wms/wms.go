// Package wms models the workflow management stack the paper runs:
// Pegasus plans the workflow, DAGMan releases tasks as their dependencies
// complete, and Condor matches released jobs to idle worker slots. The
// scheduler is locality-blind FIFO, as the paper notes ("the scheduler ...
// does not consider data locality or parent-child affinity"); a
// data-aware variant is provided for the paper's future-work ablation.
package wms

import (
	"fmt"
	"slices"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/outage"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// Overheads of the Condor/DAGMan stack, calibrated to the per-job costs
// observed with Condor 7.x glide-ins: a submit throttle in DAGMan and a
// match/claim/activate delay before the job's executable starts on the
// slot.
const (
	submitDelay  = 0.010
	startLatency = 0.40

	// defaultCheckpointBytes sizes a checkpoint when the task declares no
	// peak memory (a checkpoint dumps the task's resident state).
	defaultCheckpointBytes = 64 * units.MB
)

// Options configures one workflow execution.
type Options struct {
	Cluster *cluster.Cluster
	Storage storage.System

	// DataAware enables the locality-aware scheduler ablation (A-2):
	// idle slots prefer ready jobs whose inputs live on their node.
	DataAware bool

	// Faults layers failure injection, node outages and checkpointing
	// on the run; the zero value is the paper's failure-free setting.
	Faults

	// Log, when non-nil, receives the run's structured event stream
	// (task attempts, transfers, outages, checkpoints, node state) as it
	// executes. Nil, the default, records nothing, at one pointer test
	// per would-be event; a recorded run is bit-identical to it.
	Log *eventlog.Writer
}

// Span records one task attempt for traces and utilization analysis.
// Failed attempts are recorded too (the slot was occupied either way);
// WriteEnd is then the abort time and Failed is set, so Gantt charts and
// trace exports show retried work instead of silently dropping it.
type Span struct {
	Task     *workflow.Task
	Node     string
	Start    float64 // slot picked the job up
	Exec     float64 // inputs staged, computation began
	WriteEnd float64 // outputs published (task complete), or abort time
	Failed   bool    // attempt was killed by failure injection or an outage
}

// FaultCounts are the fault model's counters, all zero on the paper's
// failure-free runs. Result and harness.RunResult embed them; the JSON
// keys are the cached result row's.
type FaultCounts struct {
	// Failures counts injected task failures that were retried.
	Failures int64 `json:"failures"`
	// Retries counts re-executions (injected failures plus outage kills).
	Retries int64 `json:"retries"`
	// Outages counts node outages that began before the workflow
	// completed; OutageKills counts task attempts they killed.
	Outages     int64 `json:"outages"`
	OutageKills int64 `json:"outage_kills"`
	// LostWorkSeconds sums slot time burned by failed attempts that no
	// checkpoint preserved (occupied-slot seconds minus durable progress).
	LostWorkSeconds float64 `json:"lost_work_s"`
	// Checkpoints and CheckpointBytes count checkpoint writes and their
	// staged bytes (restore reads are not included in the byte count).
	Checkpoints     int64   `json:"checkpoints"`
	CheckpointBytes float64 `json:"checkpoint_bytes"`
}

// Result summarizes one workflow execution.
type Result struct {
	Makespan     float64
	Spans        []Span
	StorageStats storage.Stats
	// BusySeconds sums slot-occupied time across all cores; divide by
	// makespan*cores for utilization.
	BusySeconds float64
	// PeakMemoryWait counts jobs that had to wait for memory admission.
	MemoryWaits int64
	FaultCounts
}

// Completed counts successful task executions (spans not flagged
// Failed); it equals the task count for any run that finished.
func (r *Result) Completed() int {
	n := 0
	for _, s := range r.Spans {
		if !s.Failed {
			n++
		}
	}
	return n
}

// Utilization returns mean worker-core utilization over the makespan.
func (r *Result) Utilization(c *cluster.Cluster) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.BusySeconds / (r.Makespan * float64(c.TotalCores()))
}

// Run plans and executes the workflow on the cluster using the given
// storage system. The storage system must already be Init-ed against the
// cluster; input files are pre-staged (free, per the paper's methodology)
// and the simulated clock runs from first submission to last task
// completion.
func Run(e *sim.Engine, opts Options, w *workflow.Workflow) (*Result, error) {
	if !w.Finalized() {
		return nil, fmt.Errorf("wms: workflow %s is not finalized", w.Name)
	}
	if opts.Cluster == nil || opts.Storage == nil {
		return nil, fmt.Errorf("wms: options need both a cluster and a storage system")
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	opts.Faults = opts.Faults.Resolved()
	// Check every task can ever run: memory demand must fit some node.
	for _, t := range w.Tasks {
		need := cluster.MemoryMB(t.PeakMemory)
		fits := false
		for _, n := range opts.Cluster.Workers {
			if need <= n.Memory.Capacity() {
				fits = true
				break
			}
		}
		if !fits {
			return nil, fmt.Errorf("wms: task %s needs %d MB, larger than any worker", t.ID, need)
		}
	}

	opts.Storage.PreStage(w.Inputs())

	run := &execution{
		e:      e,
		opts:   opts,
		w:      w,
		done:   sim.NewWaitGroup(e),
		result: &Result{},
	}
	if opts.FailureRate > 0 {
		run.failRand = rng.New(opts.FailureSeed)
	}
	if opts.OutageRate > 0 {
		sched, err := outage.New(outage.Config{Rate: opts.OutageRate, Duration: opts.OutageDuration, Seed: opts.OutageSeed})
		if err != nil {
			return nil, fmt.Errorf("wms: %w", err)
		}
		run.outages = sched
		run.running = make(map[*cluster.Node][]*attempt)
	}
	if opts.DataAware {
		run.disp = newDataAwareDispatcher(e, opts.Storage)
	} else {
		run.disp = newFIFODispatcher(e)
	}
	run.execute()
	run.result.StorageStats = opts.Storage.Stats()
	return run.result, nil
}

// execution carries the run's mutable state.
type execution struct {
	e      *sim.Engine
	opts   Options
	w      *workflow.Workflow
	disp   dispatcher
	tasks  []taskRun // by Task.Index
	ready  *sim.Mailbox[*workflow.Task]
	done   *sim.WaitGroup
	result *Result

	// Failure injection (nil failRand disables it). Failures are
	// transient: once a task has exhausted opts.MaxRetries failed
	// attempts it runs clean, so workflows always complete.
	failRand *rng.RNG

	// Correlated outages (nil outages disables them). Per-node daemons
	// walk the deterministic schedule; running tracks in-flight attempts
	// per node (slice, not map: kill order must be deterministic) so an
	// outage can kill them.
	outages *outage.Schedule
	running map[*cluster.Node][]*attempt
	stopped bool
}

// taskRun is one task's record for the run.
type taskRun struct {
	remain   int            // parents not yet finished
	attempts int            // attempts started; numbers the log's attempts from 1
	failures int            // injected failures, bounded by opts.MaxRetries
	progress float64        // durable fraction of the computation, from the last checkpoint
	ckpt     *workflow.File // the checkpoint file, made by ckptFile
}

// attempt is the kill handle for one in-flight task attempt: an outage
// on its node sets killed, and interrupts the attempt immediately when
// it is inside an interruptible compute sleep (timer armed). Attempts
// suspended elsewhere (mid-transfer, in admission queues) notice the
// flag cooperatively at their next phase boundary.
type attempt struct {
	p      *sim.Proc
	task   *workflow.Task
	killed bool
	timer  *sim.Timer // non-nil while inside sleepAttempt
}

// dead reports whether an outage killed the attempt. The nil handle of a
// run without outages never dies.
func (a *attempt) dead() bool { return a != nil && a.killed }

// execute wires up DAGMan and the slots, then drives the engine to
// completion.
func (x *execution) execute() {
	x.ready = sim.NewMailbox[*workflow.Task](x.e)
	x.done.Add(len(x.w.Tasks))

	x.tasks = make([]taskRun, len(x.w.Tasks))
	for i, t := range x.w.Tasks {
		st := &x.tasks[i]
		st.remain = len(t.Parents())
		if st.remain == 0 {
			x.ready.Put(t)
		}
	}

	// DAGMan: submits ready tasks to the scheduler, throttled.
	x.e.GoDaemon("dagman", func(p *sim.Proc) {
		for {
			t, ok := x.ready.Get(p)
			if !ok {
				return
			}
			p.Sleep(submitDelay)
			x.disp.submit(t)
		}
	})

	// Slots: one process per worker core, pulling jobs from the
	// dispatcher (Condor startds with one slot per core).
	for _, node := range x.opts.Cluster.Workers {
		for s := 0; s < node.Type.Cores; s++ {
			node := node
			x.e.GoDaemon(fmt.Sprintf("%s/slot%d", node.Name, s), func(p *sim.Proc) {
				for {
					t := x.disp.request(p, node)
					if t == nil {
						return
					}
					if x.outages != nil && node.Down() {
						// A dead startd matches no jobs: hand the job back
						// for a live node and wait out the outage.
						x.disp.submit(t)
						node.WaitUp(p)
						continue
					}
					x.runJob(p, node, t)
					if x.outages != nil && node.Down() {
						// The attempt was killed mid-run; don't request
						// more work until the node recovers.
						node.WaitUp(p)
					}
				}
			})
		}
	}

	// Outage daemons: one per worker node, walking the node's
	// deterministic outage stream. They stop re-arming once the workflow
	// completes, so the event queue drains.
	if x.outages != nil {
		for i, node := range x.opts.Cluster.Workers {
			i, node := i, node
			x.e.GoDaemon(fmt.Sprintf("%s/outage", node.Name), func(p *sim.Proc) {
				st := x.outages.Node(i)
				for {
					w := st.Next()
					p.Sleep(w.Start - p.Now())
					if x.stopped {
						return
					}
					x.takeDown(node, w.Duration())
					p.Sleep(w.End - p.Now())
					node.SetUp()
					x.opts.Log.Record(eventlog.Event{T: p.Now(), Kind: eventlog.NodeUp, Node: node.Name})
					x.opts.Log.Record(eventlog.Event{T: p.Now(), Kind: eventlog.OutageEnd, Node: node.Name})
					if x.stopped {
						return
					}
				}
			})
		}
	}

	// Completion watcher: once every task is done, close the pipeline so
	// the daemons drain.
	x.e.Go("completion", func(p *sim.Proc) {
		x.done.Wait(p)
		x.result.Makespan = p.Now()
		x.stopped = true
		x.ready.Close()
		x.disp.close()
	})

	x.e.Run()
}

// takeDown starts an outage on node: kill every in-flight attempt and
// mark the node offline so its slots idle and its data is unreadable.
// dur is the scheduled outage length, carried on the outage-begin event.
func (x *execution) takeDown(node *cluster.Node, dur float64) {
	node.SetDown()
	x.result.Outages++
	now := x.e.Now()
	x.opts.Log.Record(eventlog.Event{T: now, Kind: eventlog.OutageBegin, Node: node.Name, Dur: dur})
	x.opts.Log.Record(eventlog.Event{T: now, Kind: eventlog.NodeDown, Node: node.Name})
	for _, att := range x.running[node] {
		if att.killed {
			continue // killed by an earlier outage, not yet at a phase boundary
		}
		att.killed = true
		x.opts.Log.Record(eventlog.Event{
			T: now, Kind: eventlog.OutageKill, Task: att.task.ID, Node: node.Name,
			Attempt: x.tasks[att.task.Index()].attempts,
		})
		if att.timer != nil {
			// Interrupt the compute sleep right now; attempts blocked in
			// transfers or queues notice the flag at their next boundary.
			att.timer.Stop()
			att.timer = nil
			att.p.Resume()
		}
	}
}

// register adds a kill handle for an attempt starting on node (nil when
// outages are disabled — the zero-overhead default path).
func (x *execution) register(p *sim.Proc, node *cluster.Node, t *workflow.Task) *attempt {
	if x.outages == nil {
		return nil
	}
	att := &attempt{p: p, task: t}
	x.running[node] = append(x.running[node], att)
	return att
}

// unregister removes the attempt's kill handle (a nil handle is never
// listed).
func (x *execution) unregister(node *cluster.Node, att *attempt) {
	if i := slices.Index(x.running[node], att); i >= 0 {
		x.running[node] = slices.Delete(x.running[node], i, i+1)
	}
}

// sleepAttempt advances the attempt by d seconds of computation,
// returning false when an outage killed it (the sleep ends at the kill
// instant). With outages disabled it is exactly Proc.Sleep, keeping
// outage-free runs bit-identical.
func (x *execution) sleepAttempt(p *sim.Proc, att *attempt, d float64) bool {
	if att == nil {
		p.Sleep(d)
		return true
	}
	if att.killed {
		return false
	}
	finished := false
	att.timer = x.e.After(d, func() {
		finished = true
		att.timer = nil
		p.Resume()
	})
	p.Suspend()
	att.timer = nil
	return finished && !att.killed
}

// ckptFile makes the synthetic checkpoint file for t on first use: one
// file per task, overwritten by each successive checkpoint, sized by the
// task's resident memory (what a checkpoint actually dumps).
func (x *execution) ckptFile(st *taskRun, t *workflow.Task) *workflow.File {
	if st.ckpt == nil {
		size := t.PeakMemory
		if size <= 0 {
			size = defaultCheckpointBytes
		}
		st.ckpt = x.w.TaskFile(t, "__ckpt__/"+t.ID, size)
	}
	return st.ckpt
}

// stage charges one storage access (an input read, checkpoint transfer,
// or output write) on behalf of a task, bracketing it with
// transfer-start/transfer-drain events in the run's log.
func (x *execution) stage(p *sim.Proc, node *cluster.Node, t *workflow.Task, f *workflow.File, phase string, write bool) {
	x.opts.Log.Record(eventlog.Event{
		T: p.Now(), Kind: eventlog.TransferStart,
		Task: t.ID, Node: node.Name, File: f.Name, Phase: phase, Size: f.Size,
	})
	start := p.Now()
	if write {
		x.opts.Storage.Write(p, node, f)
	} else {
		x.opts.Storage.Read(p, node, f)
	}
	x.opts.Log.Record(eventlog.Event{
		T: p.Now(), Kind: eventlog.TransferDrain,
		Task: t.ID, Node: node.Name, File: f.Name, Phase: phase, Size: f.Size,
		Dur: p.Now() - start,
	})
}

// runJob executes one attempt of a task on a slot: memory admission, the
// attempt's work, then either the abort, which hands the task back to
// DAGMan, or the dependency release.
func (x *execution) runJob(p *sim.Proc, node *cluster.Node, t *workflow.Task) {
	st := &x.tasks[t.Index()]
	st.attempts++
	span := Span{Task: t, Node: node.Name, Start: p.Now()}
	att := x.register(p, node, t)
	x.opts.Log.Record(eventlog.Event{
		T: span.Start, Kind: eventlog.TaskStart, Task: t.ID, Node: node.Name, Attempt: st.attempts,
	})

	// Memory admission gates task start on resident-memory availability,
	// the mechanism that makes Broadband memory-limited.
	memMB := 0
	if t.PeakMemory > 0 {
		memMB = cluster.MemoryMB(t.PeakMemory)
		if node.Memory.Available() < memMB {
			x.result.MemoryWaits++
		}
		node.Memory.Acquire(p, memMB)
	}

	durable, ok := x.work(p, node, t, st, att, &span)
	if memMB > 0 {
		node.Memory.Release(memMB)
	}
	x.unregister(node, att)
	span.WriteEnd = p.Now()
	busy := span.WriteEnd - span.Start
	x.result.BusySeconds += busy

	if !ok {
		// Abort (injected failure or outage kill): the slot's time is
		// charged, and all of it beyond the durable compute-seconds that
		// checkpoints preserved is lost work.
		reason := "injected"
		if att.dead() {
			x.result.OutageKills++
			reason = "outage"
		}
		if span.Exec == 0 {
			// Killed before computation began: the whole occupied window
			// was staging (keeps trace phase accounting non-negative).
			span.Exec = span.WriteEnd
		}
		span.Failed = true
		x.result.Spans = append(x.result.Spans, span)
		x.result.LostWorkSeconds += busy - durable
		x.result.Retries++
		x.opts.Log.Record(eventlog.Event{
			T: span.WriteEnd, Kind: eventlog.TaskFail, Task: t.ID, Node: node.Name,
			Attempt: st.attempts, Reason: reason,
		})
		x.opts.Log.Record(eventlog.Event{
			T: span.WriteEnd, Kind: eventlog.TaskRetry, Task: t.ID, Attempt: st.attempts,
		})
		x.ready.Put(t)
		return
	}

	x.opts.Log.Record(eventlog.Event{
		T: span.WriteEnd, Kind: eventlog.TaskFinish, Task: t.ID, Node: node.Name,
		Attempt: st.attempts, Dur: busy,
	})
	x.result.Spans = append(x.result.Spans, span)

	// DAGMan dependency release.
	for _, c := range t.Children() {
		cs := &x.tasks[c.Index()]
		cs.remain--
		if cs.remain == 0 {
			x.ready.Put(c)
		}
	}
	x.done.Done()
}

// work runs one attempt's phases on an admitted slot: activation, input
// staging, the restore of the last checkpoint, computation with its
// checkpoints, and output publication. It returns the compute-seconds
// this attempt's checkpoints preserved, and false when an injected
// failure or an outage kill ended the attempt early. An outage is
// noticed at the next phase boundary, or at once inside a compute sleep.
func (x *execution) work(p *sim.Proc, node *cluster.Node, t *workflow.Task, st *taskRun, att *attempt, span *Span) (durable float64, ok bool) {
	if att.dead() {
		// The node died while this attempt was queued for memory
		// admission; nothing ran, nothing is lost.
		return 0, false
	}
	p.Sleep(startLatency)
	if att.dead() {
		// The node died during slot activation: abort before staging so a
		// dead node issues no storage traffic.
		return 0, false
	}
	for _, f := range t.Inputs {
		x.stage(p, node, t, f, "input", false)
		if att.dead() {
			return 0, false
		}
	}
	full := t.Runtime / node.Type.CPUFactor
	resume := 0.0
	if st.progress > 0 {
		// Restore the last checkpoint before resuming: real staging
		// traffic through the storage backend, like any input read.
		ck := x.ckptFile(st, t)
		x.stage(p, node, t, ck, "restore", false)
		resume = st.progress * full
		x.opts.Log.Record(eventlog.Event{
			T: p.Now(), Kind: eventlog.CheckpointRestore,
			Task: t.ID, Node: node.Name, File: ck.Name, Size: ck.Size, Attempt: st.attempts,
		})
		if att.dead() {
			return 0, false
		}
	}
	span.Exec = p.Now()
	x.opts.Log.Record(eventlog.Event{
		T: span.Exec, Kind: eventlog.TaskExec, Task: t.ID, Node: node.Name, Attempt: st.attempts,
	})

	cpu := full - resume
	failAt := -1.0
	if x.failRand != nil && st.failures < x.opts.MaxRetries &&
		x.failRand.Float64() < x.opts.FailureRate {
		// Transient failure: the attempt dies a random fraction into its
		// (remaining) computation, the slot is freed, and DAGMan
		// re-queues the job. The aborted attempt still occupied the
		// slot, so it is recorded as a failed span and charged to
		// BusySeconds.
		failAt = cpu * x.failRand.Float64()
	}
	ran := 0.0
	for {
		chunk := cpu
		if x.opts.CheckpointInterval > 0 && ran+x.opts.CheckpointInterval < cpu {
			chunk = ran + x.opts.CheckpointInterval
		}
		if failAt >= 0 && failAt <= chunk {
			if x.sleepAttempt(p, att, failAt-ran) {
				st.failures++
				x.result.Failures++
			}
			return durable, false
		}
		if !x.sleepAttempt(p, att, chunk-ran) {
			return durable, false
		}
		ran = chunk
		if ran >= cpu {
			break
		}
		// Durable checkpoint: staged through the storage system, so the
		// overhead competes with the workflow's own I/O. Progress is
		// credited as soon as the write completes — even if the attempt
		// was killed while writing, the bytes landed, so the retry may
		// resume from them (otherwise lost work would double-count paid
		// checkpoint overhead).
		ck := x.ckptFile(st, t)
		x.stage(p, node, t, ck, "ckpt", true)
		x.result.Checkpoints++
		x.result.CheckpointBytes += ck.Size
		st.progress = (resume + ran) / full
		durable = ran
		x.opts.Log.Record(eventlog.Event{
			T: p.Now(), Kind: eventlog.CheckpointWrite,
			Task: t.ID, Node: node.Name, File: ck.Name, Size: ck.Size, Attempt: st.attempts,
		})
		if att.dead() {
			return durable, false
		}
	}

	for _, f := range t.Outputs {
		x.stage(p, node, t, f, "output", true)
		if att.dead() {
			return durable, false
		}
	}
	return durable, true
}
