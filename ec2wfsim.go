// Package ec2wfsim reproduces "Data Sharing Options for Scientific
// Workflows on Amazon EC2" (Juve et al., SC 2010) as a calibrated
// discrete-event simulation: EC2 virtual clusters, the paper's five
// data-sharing systems (Amazon S3 with a client cache, NFS, GlusterFS in
// NUFA and distribute modes, PVFS) plus the local-disk baseline and
// XtreemFS, a Pegasus/DAGMan/Condor-style workflow engine, the three
// evaluated applications (Montage, Broadband, Epigenome), and the 2010
// EC2/S3 cost model.
//
// The facade wraps the internal packages into a three-line experiment.
// A Config names the cell; functional options compose scenario knobs on
// top of it:
//
//	res, err := ec2wfsim.Run(
//	    ec2wfsim.Config{Application: "montage", Storage: "gluster-nufa", Workers: 4},
//	    ec2wfsim.WithFailures(0.1, 5),
//	    ec2wfsim.WithOutages(1, 120),
//	    ec2wfsim.WithCheckpointing(120),
//	)
//	fmt.Println(res.MakespanSeconds, res.CostPerHour)
//
// Whole experiment matrices are one Experiment value: a base cell, grid
// axes crossed over it, and an optional replicate count. Sweep streams
// results through a callback while the grid is still running and stops
// on context cancellation; an Experiment also round-trips through JSON
// (MarshalSpec/ParseSpec), so the same matrix can run from a file via
// `wfbench -spec`.
//
// The README's "Architecture" section describes the simulation's layers,
// and its "Library API" section this package.
package ec2wfsim

import (
	"bytes"
	"context"
	"errors"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/sweep"
	"ec2wfsim/internal/workflow"
)

// Config selects one deployment to simulate. It names the cell —
// application (or custom workflow), storage system, cluster size — plus
// the most common knobs. Everything else (worker instance types,
// failure injection, correlated outages, checkpointing, seed control)
// composes on top via functional options.
type Config struct {
	// Application is "montage", "broadband" or "epigenome" (the paper's
	// three workloads, generated at paper scale), unless Workflow is set.
	Application string
	// Workflow overrides Application with a custom DAG.
	Workflow *workflow.Workflow
	// Storage is one of Systems(): "local", "nfs", "nfs-m2.4xlarge",
	// "nfs-sync", "gluster-nufa", "gluster-dist", "pvfs", "s3",
	// "s3-nocache" or "xtreemfs".
	Storage string
	// Workers is the worker-node count (the paper sweeps 1, 2, 4, 8 x
	// c1.xlarge; see WithWorkerType for other instance types).
	Workers int
	// DataAware enables the locality-aware scheduler (the paper's
	// future-work suggestion) instead of Condor's locality-blind FIFO.
	DataAware bool
	// Seed varies provisioning jitter; zero uses a fixed default, keeping
	// runs bit-for-bit reproducible.
	Seed uint64
}

// Option composes one scenario knob on top of a base Config. Options
// are self-describing all the way down: each knob an option sets is
// automatically part of the memoization key, replicated with paired
// seeds under SweepSeeds, registered as a CLI flag on wfbench/wfsim,
// and serialized in experiment specs.
type Option struct {
	apply func(*scenario.Spec)
}

// WithFailures injects i.i.d. transient task failures with the given
// per-attempt probability, bounding re-executions at maxRetries per
// task (0 = DAGMan's RETRY default of 3).
func WithFailures(rate float64, maxRetries int) Option {
	return Option{func(s *scenario.Spec) {
		s.FailureRate = rate
		s.MaxRetries = maxRetries
	}}
}

// WithFailureSeed drives the failure-injection RNG independently of the
// provisioning seed (0 = a fixed default). Ignored without WithFailures.
func WithFailureSeed(seed uint64) Option {
	return Option{func(s *scenario.Spec) { s.FailureSeed = seed }}
}

// WithOutages injects correlated node outages at the given expected
// rate per node per hour, each lasting meanDurationSeconds on average
// (0 = the 120 s default). A down node idles its task slots, kills
// in-flight attempts, loses its RAM caches and makes data it owns
// unreadable until recovery.
func WithOutages(ratePerNodeHour, meanDurationSeconds float64) Option {
	return Option{func(s *scenario.Spec) {
		s.OutageRate = ratePerNodeHour
		s.OutageDuration = meanDurationSeconds
	}}
}

// WithOutageSeed drives the outage schedule independently of the other
// seeds (0 = a fixed default). Ignored without WithOutages.
func WithOutageSeed(seed uint64) Option {
	return Option{func(s *scenario.Spec) { s.OutageSeed = seed }}
}

// WithCheckpointing makes tasks write a checkpoint every
// intervalSeconds of computation — sized by their peak memory and
// staged through the storage backend as real traffic — and killed
// attempts resume from the last checkpoint instead of from zero.
func WithCheckpointing(intervalSeconds float64) Option {
	return Option{func(s *scenario.Spec) { s.CheckpointInterval = intervalSeconds }}
}

// WithWorkerType selects the worker instance type by EC2 name
// (WorkerTypes lists the catalog; empty means the paper's c1.xlarge).
func WithWorkerType(name string) Option {
	return Option{func(s *scenario.Spec) { s.WorkerType = name }}
}

// WithAppSeed varies the generated application's task-runtime jitter
// (0 = the fixed paper seed). Ignored for custom Workflows.
func WithAppSeed(seed uint64) Option {
	return Option{func(s *scenario.Spec) { s.AppSeed = seed }}
}

// WithInitializedDisks zero-fills the given bytes of ephemeral disk
// before the run (the paper's A-6 first-write ablation).
func WithInitializedDisks(bytes float64) Option {
	return Option{func(s *scenario.Spec) {
		s.InitializeDisks = true
		s.InitializeBytes = bytes
	}}
}

// runConfig translates the facade config plus options for the harness.
func (cfg Config) runConfig(opts ...Option) harness.RunConfig {
	rc := harness.RunConfig{
		App:       cfg.Application,
		Workflow:  cfg.Workflow,
		Storage:   cfg.Storage,
		Workers:   cfg.Workers,
		DataAware: cfg.DataAware,
		Seed:      cfg.Seed,
	}
	for _, o := range opts {
		o.apply(&rc)
	}
	return rc
}

// Result reports one simulated workflow execution.
type Result struct {
	// MakespanSeconds is the workflow wall-clock time (excluding
	// provisioning and data staging, per the paper's methodology).
	MakespanSeconds float64
	// ProvisionSeconds is the boot+contextualization time, reported
	// separately.
	ProvisionSeconds float64
	// CostPerHour is the dollars Amazon would actually charge (hours
	// rounded up, service nodes and S3 request fees included).
	CostPerHour float64
	// CostPerSecond is the hypothetical fine-grained bill the paper uses
	// for comparison.
	CostPerSecond float64
	// Utilization is mean worker-core busy fraction.
	Utilization float64
	// Storage carries the storage system's counters (S3 GET/PUT counts,
	// cache hits, network bytes, ...).
	Storage storage.Stats
	// Failures counts injected i.i.d. task failures; Retries counts all
	// re-executions (injected failures plus outage kills). Outages and
	// OutageKills count node outages and the attempts they killed;
	// LostWorkSeconds is slot time failed attempts burned beyond any
	// checkpointed progress; Checkpoints and CheckpointBytes count
	// checkpoint writes and the bytes they staged.
	Failures        int64
	Retries         int64
	Outages         int64
	OutageKills     int64
	LostWorkSeconds float64
	Checkpoints     int64
	CheckpointBytes float64
}

func newResult(r *harness.RunResult) *Result {
	return &Result{
		MakespanSeconds:  r.Makespan,
		ProvisionSeconds: r.ProvisionTime,
		CostPerHour:      r.CostHour.Total(),
		CostPerSecond:    r.CostSecond.Total(),
		Utilization:      r.Utilization,
		Storage:          r.Stats,
		Failures:         r.Failures,
		Retries:          r.Retries,
		Outages:          r.Outages,
		OutageKills:      r.OutageKills,
		LostWorkSeconds:  r.LostWorkSeconds,
		Checkpoints:      r.Checkpoints,
		CheckpointBytes:  r.CheckpointBytes,
	}
}

// Run simulates one deployment: the base cell named by cfg with any
// scenario options composed on top. Unknown application, storage or
// worker-type names fail with an error listing the valid names.
func Run(cfg Config, opts ...Option) (*Result, error) {
	r, err := harness.Run(cfg.runConfig(opts...))
	if err != nil {
		return nil, err
	}
	return newResult(r), nil
}

// AmortizedCost compares provisioning one cluster for k successive runs
// of the configured workflow against k separately provisioned runs — the
// paper's Section VI strategy for absorbing per-hour billing waste.
type AmortizedCost struct {
	Runs           int
	SeparateTotal  float64 // k independent provisioning cycles
	SharedTotal    float64 // one cluster, k workflows back to back
	PerSecondTotal float64 // granularity-free baseline (same either way)
	SavedFraction  float64 // 1 - Shared/Separate
}

// Amortize runs the configuration once and prices k successive runs.
func Amortize(cfg Config, runs int, opts ...Option) (*AmortizedCost, error) {
	r, err := harness.Run(cfg.runConfig(opts...))
	if err != nil {
		return nil, err
	}
	a := r.Amortize(runs)
	return &AmortizedCost{
		Runs:           a.Runs,
		SeparateTotal:  a.SeparateTotal,
		SharedTotal:    a.SharedTotal,
		PerSecondTotal: a.PerSecondTotal,
		SavedFraction:  a.Savings(),
	}, nil
}

// Axis varies one scenario field across values in an Experiment grid.
// Field is the spec's JSON field name (AxisFields lists them); Vary and
// the typed helpers construct axes without spelling values as `any`.
type Axis = scenario.Axis

// Vary builds an axis over any scenario field by its JSON name, e.g.
// Vary("checkpoint_interval", 0.0, 60.0, 300.0).
func Vary(field string, values ...any) Axis {
	return Axis{Field: field, Values: values}
}

// VaryWorkers sweeps the cluster size — including sizes beyond the
// paper's 8 nodes.
func VaryWorkers(counts ...int) Axis { return vary("workers", counts) }

// VaryStorage sweeps storage systems (Systems lists the valid names).
func VaryStorage(names ...string) Axis { return vary("storage", names) }

// VaryApplications sweeps the paper's applications.
func VaryApplications(names ...string) Axis { return vary("app", names) }

// VaryWorkerTypes sweeps worker instance types (WorkerTypes lists the
// catalog).
func VaryWorkerTypes(names ...string) Axis { return vary("worker_type", names) }

// VaryFailureRates sweeps the injected per-attempt failure probability.
func VaryFailureRates(rates ...float64) Axis { return vary("failure_rate", rates) }

// VaryOutageRates sweeps the correlated-outage rate (per node-hour).
func VaryOutageRates(rates ...float64) Axis { return vary("outage_rate", rates) }

func vary[T any](field string, values []T) Axis {
	out := make([]any, len(values))
	for i, v := range values {
		out[i] = v
	}
	return Axis{Field: field, Values: out}
}

// AxisFields lists every sweepable scenario field name.
func AxisFields() []string { return scenario.AxisFields() }

// Experiment is a whole experiment matrix: a base cell (with options
// composed on top), grid axes crossed over it in declaration order
// (the last axis varies fastest), and an optional replicate count used
// by SweepSeeds. An Experiment without a custom Workflow serializes to
// a JSON spec (MarshalSpec) runnable via `wfbench -spec`.
type Experiment struct {
	Base    Config
	Options []Option
	Axes    []Axis
	// Seeds is SweepSeeds' replicate count per cell (<= 1 means single
	// measurement). Replicate 0 always keeps the cell's own seeds, so
	// paper numbers lead every replication study.
	Seeds int
}

// scenarioExperiment lowers the facade experiment onto the scenario
// layer. A custom Workflow rides in the base spec, out of its JSON, and
// every expanded cell shares it read-only (the DAG is immutable during
// execution; all run state lives in wms).
func (e Experiment) scenarioExperiment() scenario.Experiment {
	return scenario.Experiment{
		Base:  e.Base.runConfig(e.Options...),
		Axes:  e.Axes,
		Seeds: e.Seeds,
	}
}

// cells expands the experiment grid into harness configurations.
func (e Experiment) cells() ([]harness.RunConfig, error) {
	return e.scenarioExperiment().Cells()
}

// MarshalSpec serializes the experiment as an indented JSON spec —
// the file format of `wfbench -spec` and `wfsim -spec`.
func (e Experiment) MarshalSpec() ([]byte, error) {
	if e.Base.Workflow != nil {
		return nil, errors.New("ec2wfsim: experiments with a custom Workflow are not serializable")
	}
	if _, err := e.cells(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := e.scenarioExperiment().Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseSpec parses a JSON experiment spec (either a full experiment or
// a bare single-cell spec) into an Experiment; axis numbers read as
// json.Number.
func ParseSpec(data []byte) (Experiment, error) {
	se, err := scenario.Read(bytes.NewReader(data))
	if err != nil {
		return Experiment{}, err
	}
	base := se.Base
	return Experiment{
		// Config-representable fields land in Base (so callers can read
		// and override them after parsing); only the fields the flat
		// Config cannot hold ride in as an option.
		Base: Config{
			Application: base.App,
			Storage:     base.Storage,
			Workers:     base.Workers,
			DataAware:   base.DataAware,
			Seed:        base.Seed,
		},
		Options: []Option{{func(s *scenario.Spec) {
			s.WorkerType = base.WorkerType
			s.AppSeed = base.AppSeed
			s.InitializeDisks = base.InitializeDisks
			s.InitializeBytes = base.InitializeBytes
			s.Faults = base.Faults
		}}},
		Axes:  se.Axes,
		Seeds: se.Seeds,
	}, nil
}

// SweepUpdate reports one completed cell (or replicate) to a streaming
// callback, in completion order.
type SweepUpdate struct {
	Index int // position in the expanded grid (replicates flattened)
	Done  int // cells completed so far, including this one
	Total int // cells in the sweep
	// Application, Storage and Workers identify the completed cell's
	// headline axes; Key is its full canonical scenario encoding (every
	// knob, normalized), which distinguishes cells in sweeps over other
	// axes — failure rates, worker types, outage rates. Key is empty
	// for custom-Workflow cells (a DAG has no canonical name).
	Application string
	Storage     string
	Workers     int
	Key         string
	Result      *Result // nil when Err != nil
	Err         error
	Cached      bool // served from the process-wide memo without running
}

// SweepOptions configure Sweep and SweepSeeds.
type SweepOptions struct {
	// Parallel bounds concurrent cells; <= 0 means all cores.
	Parallel int
	// OnResult, if set, streams every completed cell in completion
	// order while the sweep is still running — partial figures before
	// the grid finishes. Calls are serialized.
	OnResult func(SweepUpdate)
}

func (o SweepOptions) harness(ctx context.Context) harness.SweepOptions {
	hopt := harness.SweepOptions{Parallel: o.Parallel, Ctx: ctx}
	if o.OnResult != nil {
		cb := o.OnResult
		hopt.Progress = func(u sweep.Update[harness.RunConfig, *harness.RunResult]) {
			su := SweepUpdate{
				Index: u.Index, Done: u.Done, Total: u.Total,
				Application: u.Config.App, Storage: u.Config.Storage, Workers: u.Config.Workers,
				Err: u.Err, Cached: u.Cached,
			}
			if u.Config.Workflow == nil {
				su.Key = scenario.Key(&u.Config)
			}
			if u.Err == nil && u.Result != nil {
				su.Result = newResult(u.Result)
			}
			cb(su)
		}
	}
	return hopt
}

// Sweep runs an experiment grid concurrently and returns results in
// grid order, bit-for-bit identical at any parallelism. Completed
// cells stream through opt.OnResult while the sweep runs; canceling
// ctx stops the sweep promptly (no new cell starts) and returns the
// context's error. A nil ctx never cancels. Experiment.Seeds is
// ignored here — use SweepSeeds for replication.
func Sweep(ctx context.Context, e Experiment, opt SweepOptions) ([]*Result, error) {
	cfgs, err := e.cells()
	if err != nil {
		return nil, err
	}
	rs, err := harness.Sweep(cfgs, opt.harness(ctx))
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(rs))
	for i, r := range rs {
		out[i] = newResult(r)
	}
	return out, nil
}

// Summary aggregates one metric over replicate runs: N, Mean, Stddev
// (sample stddev; 0 when N < 2), Min and Max.
type Summary = sweep.Summary

// Replicated aggregates one cell's multi-seed replicates — the
// confidence band the paper's single measurements lack. Replicate 0
// reproduces the paper's numbers.
type Replicated struct {
	// Application, Storage and Workers identify the cell.
	Application string
	Storage     string
	Workers     int
	// Runs are the individual replicates, in replicate order.
	Runs []*Result
	// Headline metric spreads over the replicates.
	Makespan      Summary
	CostPerHour   Summary
	CostPerSecond Summary
	Utilization   Summary
	// Failure/outage/checkpoint counter spreads; all zero for cells
	// without those options.
	Failures        Summary
	Retries         Summary
	OutageKills     Summary
	LostWorkSeconds Summary
	CheckpointBytes Summary
}

// SweepSeeds runs every cell of the experiment grid Experiment.Seeds
// times with deterministic per-cell seed derivation and aggregates per
// cell. Replicates of a cell with failure or outage options share
// their jitter seeds with the same replicate of the option-free
// baseline cell, so overhead comparisons are paired. Streaming and
// cancellation work as in Sweep, with one OnResult call per replicate.
func SweepSeeds(ctx context.Context, e Experiment, opt SweepOptions) ([]Replicated, error) {
	cfgs, err := e.cells()
	if err != nil {
		return nil, err
	}
	hopt := opt.harness(ctx)
	hopt.Seeds = e.Seeds
	reps, err := harness.SweepSeeds(cfgs, hopt)
	if err != nil {
		return nil, err
	}
	out := make([]Replicated, len(reps))
	for i, rep := range reps {
		runs := make([]*Result, len(rep.Runs))
		for j, r := range rep.Runs {
			runs[j] = newResult(r)
		}
		out[i] = Replicated{
			Application:     rep.Config.App,
			Storage:         rep.Config.Storage,
			Workers:         rep.Config.Workers,
			Runs:            runs,
			Makespan:        rep.Makespan,
			CostPerHour:     rep.CostHour,
			CostPerSecond:   rep.CostSecond,
			Utilization:     rep.Utilization,
			Failures:        rep.Failures,
			Retries:         rep.Retries,
			OutageKills:     rep.OutageKills,
			LostWorkSeconds: rep.LostWork,
			CheckpointBytes: rep.CheckpointBytes,
		}
	}
	return out, nil
}

// Systems lists the available storage system names.
func Systems() []string { return storage.Names() }

// Applications lists the paper's workloads.
func Applications() []string { return []string{"montage", "broadband", "epigenome"} }

// WorkerTypes lists the worker instance-type catalog.
func WorkerTypes() []string { return cluster.TypeNames() }
