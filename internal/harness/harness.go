// Package harness defines and runs the paper's experiments: one runner
// for a single (application x storage x cluster-size) cell, and generators
// for every table and figure in the evaluation (Table I, Figures 2-7) plus
// the named ablations (see Ablation).
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
	"ec2wfsim/internal/workflow"
)

// DefaultSeed is the fixed provisioning-jitter seed used when a
// RunConfig leaves Seed zero — the paper's single-measurement setting.
const DefaultSeed uint64 = scenario.DefaultSeed

// RunConfig names one experiment cell.
type RunConfig struct {
	App     string // montage | broadband | epigenome
	Storage string // a storage.Names() entry
	Workers int
	// WorkerType selects the worker instance type by EC2 name; empty
	// means the paper's c1.xlarge.
	WorkerType string
	// DataAware switches to the locality-aware scheduler (ablation A-2).
	DataAware bool
	// Workflow overrides the paper-scale application (used by tests and
	// benchmarks to run scaled-down instances).
	Workflow *workflow.Workflow
	// Seed varies provisioning jitter; 0 means the fixed default.
	Seed uint64
	// AppSeed varies the generated application's task-runtime jitter
	// (multi-seed replication); 0 keeps the app's fixed paper seed.
	// Ignored when Workflow is set.
	AppSeed uint64
	// InitializeDisks zero-fills ephemeral volumes first (ablation A-6).
	InitializeDisks bool
	InitializeBytes float64

	// FailureRate injects transient task failures with this per-attempt
	// probability (wms.Options.FailureRate). Zero — the paper's setting —
	// disables injection, and the remaining failure fields are ignored.
	FailureRate float64
	// MaxRetries bounds failed attempts per task; 0 means the DAGMan
	// default of 3. Only meaningful when FailureRate > 0.
	MaxRetries int
	// FailureSeed drives the failure-injection RNG independently of the
	// provisioning seed; 0 means wms's fixed default. SweepSeeds varies
	// it per replicate alongside the jitter seeds.
	FailureSeed uint64

	// OutageRate injects correlated node outages (whole nodes offline,
	// in-flight tasks killed, node-resident data unavailable) at this
	// expected rate per node per hour (wms.Options.OutageRate). Zero —
	// the paper's setting — disables outages, and OutageDuration and
	// OutageSeed are ignored.
	OutageRate float64
	// OutageDuration is the mean outage length in seconds; 0 means the
	// wms default. Only meaningful when OutageRate > 0.
	OutageDuration float64
	// OutageSeed drives the outage schedule independently of the other
	// seeds; 0 means wms's fixed default. SweepSeeds varies it per
	// replicate alongside the jitter seeds.
	OutageSeed uint64
	// CheckpointInterval makes tasks checkpoint every interval seconds of
	// computation and resume from the last checkpoint after a failure or
	// outage kill (wms.Options.CheckpointInterval). Zero disables it.
	CheckpointInterval float64

	// transient marks a derived replicate (SweepSeeds, rep > 0): its
	// hashed seeds are never requested again, so caching the result and
	// its per-seed DAG would only retain memory for the process
	// lifetime. CellKey returns "" for transient cells.
	transient bool
}

// Spec projects the configuration onto its serializable scenario spec —
// everything but the in-memory Workflow override and the transient
// replicate marker.
func (cfg RunConfig) Spec() scenario.Spec {
	return scenario.Spec{
		App:                cfg.App,
		Storage:            cfg.Storage,
		Workers:            cfg.Workers,
		WorkerType:         cfg.WorkerType,
		DataAware:          cfg.DataAware,
		Seed:               cfg.Seed,
		AppSeed:            cfg.AppSeed,
		InitializeDisks:    cfg.InitializeDisks,
		InitializeBytes:    cfg.InitializeBytes,
		FailureRate:        cfg.FailureRate,
		MaxRetries:         cfg.MaxRetries,
		FailureSeed:        cfg.FailureSeed,
		OutageRate:         cfg.OutageRate,
		OutageDuration:     cfg.OutageDuration,
		OutageSeed:         cfg.OutageSeed,
		CheckpointInterval: cfg.CheckpointInterval,
	}
}

// SpecConfig builds the RunConfig for a scenario spec.
func SpecConfig(s scenario.Spec) RunConfig {
	return RunConfig{
		App:                s.App,
		Storage:            s.Storage,
		Workers:            s.Workers,
		WorkerType:         s.WorkerType,
		DataAware:          s.DataAware,
		Seed:               s.Seed,
		AppSeed:            s.AppSeed,
		InitializeDisks:    s.InitializeDisks,
		InitializeBytes:    s.InitializeBytes,
		FailureRate:        s.FailureRate,
		MaxRetries:         s.MaxRetries,
		FailureSeed:        s.FailureSeed,
		OutageRate:         s.OutageRate,
		OutageDuration:     s.OutageDuration,
		OutageSeed:         s.OutageSeed,
		CheckpointInterval: s.CheckpointInterval,
	}
}

// RunResult is one cell's outcome.
type RunResult struct {
	Config        RunConfig
	Makespan      float64
	ProvisionTime float64
	Utilization   float64
	MemoryWaits   int64
	// Failures counts injected transient failures (zero when FailureRate
	// is 0); Retries counts all re-executions — injected failures plus
	// outage kills.
	Failures int64
	Retries  int64
	// Outages and OutageKills count node outages and the attempts they
	// killed; LostWorkSeconds sums slot time failed attempts burned
	// beyond any checkpointed progress; Checkpoints/CheckpointBytes
	// count checkpoint writes and their staged bytes.
	Outages         int64
	OutageKills     int64
	LostWorkSeconds float64
	Checkpoints     int64
	CheckpointBytes float64
	Stats           storage.Stats
	CostHour        cost.Breakdown
	CostSecond      cost.Breakdown
	// Spans records per-task execution windows for Gantt charts and
	// trace exports.
	Spans []wms.Span
	// Cluster is the provisioned cluster (for follow-up cost analyses
	// such as amortization over successive workflows).
	Cluster *cluster.Cluster
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

// Run executes one experiment cell at the requested scale. Catalog
// names are validated up front, so an unknown application, storage
// system or worker type — a typo in a spec file, say — fails with a
// typed *scenario.UnknownNameError listing the valid names.
func Run(cfg RunConfig) (*RunResult, error) {
	r, _, err := runWith(cfg, nil)
	return r, err
}

// runWith is Run with an optional event recorder threaded through the
// provisioning step, the storage env and the workflow engine. It also
// returns the engine's total scheduled-event count, which recorded runs
// carry in the log trailer as a replay cross-check.
func runWith(cfg RunConfig, rec eventlog.Recorder) (*RunResult, int64, error) {
	w := cfg.Workflow
	if w == nil {
		if err := scenario.ValidateApp(cfg.App); err != nil {
			return nil, 0, err
		}
		var err error
		w, err = apps.PaperScaleSeeded(cfg.App, cfg.AppSeed)
		if err != nil {
			return nil, 0, err
		}
	}
	if err := scenario.ValidateStorage(cfg.Storage); err != nil {
		return nil, 0, err
	}
	if err := scenario.ValidateWorkerType(cfg.WorkerType); err != nil {
		return nil, 0, err
	}
	sys, err := storage.ByName(cfg.Storage)
	if err != nil {
		return nil, 0, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
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
		Cluster:            c,
		Storage:            sys,
		DataAware:          cfg.DataAware,
		FailureRate:        cfg.FailureRate,
		MaxRetries:         cfg.MaxRetries,
		FailureSeed:        cfg.FailureSeed,
		OutageRate:         cfg.OutageRate,
		OutageDuration:     cfg.OutageDuration,
		OutageSeed:         cfg.OutageSeed,
		CheckpointInterval: cfg.CheckpointInterval,
		Recorder:           rec,
	}, w)
	if err != nil {
		return nil, 0, err
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

// supportsWorkers reports whether the system runs at that scale (GlusterFS
// and PVFS need two nodes; local disk only one).
func supportsWorkers(sysName string, workers int) bool {
	sys, err := storage.ByName(sysName)
	if err != nil {
		return false
	}
	if workers < sys.MinWorkers() {
		return false
	}
	if sysName == "local" && workers != 1 {
		return false
	}
	return true
}

// Cell labels an (application, storage, workers) result in a figure grid.
type Cell struct {
	System  string
	Workers int
	Result  *RunResult
}

// GridConfigs enumerates the paper's sweep for an application: the five
// compared systems (plus the local baseline at one node) crossed with
// NodeCounts, minus combinations the system cannot form.
func GridConfigs(app string) []RunConfig {
	systems := append([]string{"local"}, storage.PaperSystems()...)
	var cfgs []RunConfig
	for _, sysName := range systems {
		for _, n := range NodeCounts() {
			if !supportsWorkers(sysName, n) {
				continue
			}
			cfgs = append(cfgs, RunConfig{App: app, Storage: sysName, Workers: n})
		}
	}
	return cfgs
}

// Grid runs the full sweep of the paper's five systems (plus the local
// baseline at one node) for an application, reusing pre-built workflows
// via build so scaled-down instances stay cheap.
func Grid(app string, build func() (*workflow.Workflow, error)) ([]Cell, error) {
	return GridSweep(app, build, SweepOptions{})
}

// GridSweep is Grid with explicit sweep options (parallelism, progress,
// cache bypass). Cells run concurrently through the sweep engine and
// come back in sweep order regardless of scheduling.
func GridSweep(app string, build func() (*workflow.Workflow, error), opt SweepOptions) ([]Cell, error) {
	cfgs := GridConfigs(app)
	if build != nil {
		for i := range cfgs {
			w, err := build()
			if err != nil {
				return nil, err
			}
			cfgs[i].Workflow = w
		}
	}
	results, err := Sweep(cfgs, opt)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(cfgs))
	for i, r := range results {
		cells[i] = Cell{System: cfgs[i].Storage, Workers: cfgs[i].Workers, Result: r}
	}
	return cells, nil
}

// Find returns the cell for (system, workers), or nil.
func Find(cells []Cell, system string, workers int) *Cell {
	for i := range cells {
		if cells[i].System == system && cells[i].Workers == workers {
			return &cells[i]
		}
	}
	return nil
}
