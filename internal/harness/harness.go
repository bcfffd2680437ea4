// Package harness defines and runs the paper's experiments: one runner
// for a single (application x storage x cluster-size) cell, and generators
// for every table and figure in the evaluation (Table I, Figures 2-7) plus
// the named experiments (see AblationSweep).
package harness

import (
	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/cost"
	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
)

// DefaultSeed is the fixed provisioning-jitter seed used when a
// RunConfig leaves Seed zero — the paper's single-measurement setting.
const DefaultSeed uint64 = scenario.DefaultSeed

// RunConfig names one experiment cell. It is the scenario spec itself:
// the serializable fields plus the in-memory Workflow override and
// Replicate index.
type RunConfig = scenario.Spec

// RunResult is one cell's outcome. Its JSON is the persistent result
// cache's row (see cache.go): the spec and every metric, in field
// order, without the execution trace.
type RunResult struct {
	Config        RunConfig `json:"spec"`
	Makespan      float64   `json:"makespan_s"`
	ProvisionTime float64   `json:"provision_s"`
	Utilization   float64   `json:"utilization"`
	MemoryWaits   int64     `json:"memory_waits"`
	// Failures counts injected transient failures (zero when FailureRate
	// is 0); Retries counts all re-executions — injected failures plus
	// outage kills.
	Failures int64 `json:"failures"`
	Retries  int64 `json:"retries"`
	// Outages and OutageKills count node outages and the attempts they
	// killed; LostWorkSeconds sums slot time failed attempts burned
	// beyond any checkpointed progress; Checkpoints/CheckpointBytes
	// count checkpoint writes and their staged bytes.
	Outages         int64          `json:"outages"`
	OutageKills     int64          `json:"outage_kills"`
	LostWorkSeconds float64        `json:"lost_work_s"`
	Checkpoints     int64          `json:"checkpoints"`
	CheckpointBytes float64        `json:"checkpoint_bytes"`
	Stats           storage.Stats  `json:"stats"`
	CostHour        cost.Breakdown `json:"cost_hour"`
	CostSecond      cost.Breakdown `json:"cost_second"`
	// Spans records per-task execution windows for Gantt charts and
	// trace exports.
	Spans []wms.Span `json:"-"`
	// Cluster is the provisioned cluster (for follow-up cost analyses
	// such as amortization over successive workflows).
	Cluster *cluster.Cluster `json:"-"`
}

// Amortize prices running the same workflow k times in succession on this
// result's cluster versus k separately provisioned runs (Section VI).
func (r *RunResult) Amortize(k int) cost.Amortized {
	return cost.Amortize(r.Cluster, r.Makespan, r.Stats, k)
}

// Completed counts successful task executions — Spans also records
// failed attempts when failures are injected (mirrors
// wms.Result.Completed).
func (r *RunResult) Completed() int {
	n := 0
	for _, s := range r.Spans {
		if !s.Failed {
			n++
		}
	}
	return n
}

// Run executes one experiment cell at the requested scale. A
// replicate-0 catalog cell runs on the process-wide paper-scale DAG of
// its (App, AppSeed), the one every sweep cell shares (withPaperDAG).
// The spec is validated up front, so an unknown application, storage
// system or worker type — a typo in a spec file, say — fails with a
// typed *scenario.UnknownNameError listing the valid names, a worker
// count the storage system cannot form with a *storage.WorkersError, a
// bad initialize_bytes with a *scenario.RangeError, and a fault knob out
// of range with a *wms.FaultError.
func Run(cfg RunConfig) (*RunResult, error) {
	r, _, err := runWith(cfg, nil)
	return r, err
}

// runWith is Run with an optional event recorder threaded through the
// provisioning step, the storage env and the workflow engine. It also
// returns the engine's total scheduled-event count, which recorded runs
// carry in the log trailer as a replay cross-check.
func runWith(cfg RunConfig, rec eventlog.Recorder) (*RunResult, int64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	cfg, err := withPaperDAG(cfg)
	if err != nil {
		return nil, 0, err
	}
	w := cfg.Workflow
	if w == nil {
		if w, err = apps.PaperScaleSeeded(cfg.App, cfg.AppSeed); err != nil {
			return nil, 0, err
		}
	}
	sys, err := storage.ByName(cfg.Storage)
	if err != nil {
		return nil, 0, err
	}
	seed := cfg.EffectiveSeed()
	workerType, err := cluster.TypeByName(cfg.WorkerType)
	if err != nil {
		return nil, 0, err
	}
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := cluster.New(e, net, rng.New(seed), cluster.Config{
		Workers:         cfg.Workers,
		WorkerType:      workerType,
		Extra:           sys.ExtraNodeTypes(),
		InitializeDisks: cfg.InitializeDisks,
		InitializeBytes: cfg.InitializeBytes,
	})
	if err != nil {
		return nil, 0, err
	}
	if rec != nil {
		// One node-up per provisioned node opens the stream, so replay
		// consumers know the cluster shape without parsing the spec.
		for _, n := range c.Workers {
			rec.Record(eventlog.Event{T: e.Now(), Kind: eventlog.NodeUp, Node: n.Name})
		}
		for _, n := range c.Extra {
			rec.Record(eventlog.Event{T: e.Now(), Kind: eventlog.NodeUp, Node: n.Name})
		}
	}
	env := &storage.Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(seed + 1), Rec: rec}
	if err := sys.Init(env); err != nil {
		return nil, 0, err
	}
	res, err := wms.Run(e, wms.Options{
		Cluster:   c,
		Storage:   sys,
		DataAware: cfg.DataAware,
		Faults:    cfg.Faults,
		Recorder:  rec,
	}, w)
	if err != nil {
		return nil, 0, err
	}
	// The result keeps its cluster for pricing. Empty the page caches so
	// a finished run does not hold every file its nodes cached.
	for _, n := range c.AllNodes() {
		n.Cache.Drop()
	}
	st := sys.Stats()
	return &RunResult{
		Config:          cfg,
		Makespan:        res.Makespan,
		ProvisionTime:   c.ProvisionTime,
		Utilization:     res.Utilization(c),
		MemoryWaits:     res.MemoryWaits,
		Failures:        res.Failures,
		Retries:         res.Retries,
		Outages:         res.Outages,
		OutageKills:     res.OutageKills,
		LostWorkSeconds: res.LostWorkSeconds,
		Checkpoints:     res.Checkpoints,
		CheckpointBytes: res.CheckpointBytes,
		Stats:           st,
		Spans:           res.Spans,
		CostHour:        cost.Compute(c, res.Makespan, st, cost.PerHour),
		CostSecond:      cost.Compute(c, res.Makespan, st, cost.PerSecond),
		Cluster:         c,
	}, e.Scheduled(), nil
}

// NodeCounts is the cluster-size sweep from the paper: "different numbers
// of resources (1-8 nodes corresponding to 8-64 cores)".
func NodeCounts() []int { return []int{1, 2, 4, 8} }

// GridConfigs enumerates the paper's sweep for an application: the five
// compared systems (plus the local baseline at one node) crossed with
// NodeCounts, minus combinations the system cannot form.
func GridConfigs(app string) []RunConfig {
	systems := append([]string{"local"}, storage.PaperSystems()...)
	var cfgs []RunConfig
	for _, sysName := range systems {
		for _, n := range NodeCounts() {
			if storage.CheckWorkers(sysName, n) != nil {
				continue
			}
			cfgs = append(cfgs, RunConfig{App: app, Storage: sysName, Workers: n})
		}
	}
	return cfgs
}
