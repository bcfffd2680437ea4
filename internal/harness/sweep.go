package harness

import (
	"context"
	"fmt"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/resultcache"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/sweep"
	"ec2wfsim/internal/workflow"
)

// The harness dispatches every experiment matrix — figure grids,
// ablations, CLI sweeps — through one shared sweep engine. Two caches
// back it:
//
//   - cellMemo holds finished cells keyed by CellKey, so the figures,
//     ablations and tests that revisit the same (app, storage, workers)
//     cell pay for it once per process;
//   - paperApps holds the built paper-scale workflows (Montage alone is
//     10k tasks), shared read-only across concurrent cells — the DAG is
//     immutable during execution, all run state lives in wms.
var (
	cellMemo  = sweep.NewMemo[*RunResult]()
	paperApps = sweep.NewMemo[*workflow.Workflow]()
)

// SweepOptions configure a batch of experiment cells.
type SweepOptions struct {
	// Parallel bounds concurrent cells and replicates; <= 0 means
	// GOMAXPROCS. It is the only parallelism setting of the harness.
	Parallel int
	// Seeds is the replicate count for SweepSeeds; <= 0 means 1.
	// Replicate 0 always uses the cell's own seed, so paper numbers are
	// the first replicate of any multi-seed study.
	Seeds int
	// NoMemo bypasses the process-wide cell cache, forcing fresh runs
	// (used by determinism tests).
	NoMemo bool
	// Cache, if set, is the persistent cross-run result store: cells
	// that miss the in-process memo consult it before simulating and
	// persist their canonical metric row after. Cache-served results
	// carry no execution trace (nil Spans/Cluster) — see
	// internal/resultcache and the note in cache.go.
	Cache *resultcache.Store
	// Progress, if set, is called per completed replicate (per cell at
	// one seed) in completion order.
	Progress func(sweep.Update[RunConfig, *RunResult])
	// OnCell, if set, streams SweepSeeds results while the sweep runs:
	// it is called once per cell whose replicates all succeeded, in cell
	// (input) order, so exports can stream rows with byte-identical
	// output at any parallelism. Calls are serialized. Sweep ignores it.
	OnCell func(cell int, rep Replicated)
	// Ctx, if set, cancels the sweep: no new cell starts once it is
	// done, in-flight cells finish and report to Progress, and Sweep
	// returns Ctx.Err(). Nil means never canceled.
	Ctx context.Context
}

// engine builds the shared sweep engine for these options: the cell
// runner (wrapped with the persistent store when one is configured),
// the canonical memo key, and the worker pool every cell and replicate
// unit is scheduled onto.
func (o SweepOptions) engine() *sweep.Engine[RunConfig, *RunResult] {
	run := runCell
	if o.Cache != nil {
		run = cachedRun(o.Cache, runCell)
	}
	eng := &sweep.Engine[RunConfig, *RunResult]{
		Run:      run,
		Key:      CellKey,
		Parallel: o.Parallel,
		Progress: o.Progress,
	}
	if !o.NoMemo {
		eng.Memo = cellMemo
	}
	return eng
}

func (o SweepOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// CellKey canonically names a configuration for memoization: each
// scenario option group renders its own normalized key segment (see
// scenario.Key), so an explicit c1.xlarge or seed 0x5EED hits the same
// cache entry as the zero value, and fields wms ignores — MaxRetries
// and FailureSeed at FailureRate 0, OutageDuration and OutageSeed at
// OutageRate 0 — are normalized away. Configurations carrying a custom
// Workflow are not memoizable (the DAG isn't part of the key) and
// return "", as do derived replicates (Replicate > 0), whose hashed
// seeds are never requested again.
func CellKey(cfg RunConfig) string {
	if cfg.Workflow != nil || cfg.Replicate > 0 {
		return ""
	}
	return scenario.Key(&cfg)
}

// CellSeed derives the RNG seed for one replicate of a cell. Replicate 0
// is the cell's own seed (the paper's fixed default when unset), so
// single-seed results are the first replicate of any multi-seed study;
// higher replicates hash the configuration so each cell's seed sequence
// depends only on its config, never on scheduling or position in the
// batch. The hash (scenario.PairKey) deliberately excludes the
// failure-injection, outage and checkpoint fields: replicate r of a
// failure or outage cell shares its jitter seeds with replicate r of
// the failure-free baseline, so overhead comparisons are paired rather
// than confounded by provisioning spread.
func CellSeed(cfg RunConfig, replicate int) uint64 {
	return scenario.ReplicateSeed(&cfg, replicate)
}

// paperWorkflow returns the shared paper-scale DAG for an application
// and runtime-jitter seed, built once per process.
func paperWorkflow(app string, seed uint64) (*workflow.Workflow, error) {
	key := fmt.Sprintf("%s|%d", app, seed)
	w, err, _ := paperApps.Do(key, func() (*workflow.Workflow, error) {
		return apps.PaperScaleSeeded(app, seed)
	})
	return w, err
}

// withPaperDAG substitutes the shared paper-scale DAG into a
// replicate-0 catalog cell, so every run of a catalog cell — Run,
// RunRecorded, Replay and every sweep cell — shares one immutable
// workflow per (app, AppSeed). Derived replicates use their per-seed
// DAG once, so runWith builds (and drops) it.
func withPaperDAG(cfg RunConfig) (RunConfig, error) {
	if cfg.Workflow != nil || cfg.App == "" || cfg.Replicate > 0 {
		return cfg, nil
	}
	w, err := paperWorkflow(cfg.App, cfg.AppSeed)
	cfg.Workflow = w
	return cfg, err
}

// runCell executes one sweep cell, naming the cell in its error.
func runCell(cfg RunConfig) (*RunResult, error) {
	r, err := Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s with %d workers: %w", cfg.App, cfg.Storage, cfg.Workers, err)
	}
	return r, nil
}

// validateCells checks every cell before any runs and before the memo
// or the result store is read, so a warm cache never serves a
// configuration that a cold run rejects.
func validateCells(cfgs []RunConfig) error {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("harness: %s on %s with %d workers: %w", cfg.App, cfg.Storage, cfg.Workers, err)
		}
	}
	return nil
}

// Sweep is SweepSeeds at one seed: it runs a batch of cells
// concurrently and returns each cell's result in input order,
// bit-for-bit identical at any parallelism. Cells already in the
// process-wide cache are not re-run; every returned result is a private
// copy, safe for the caller to mutate. With opt.Ctx set, cancellation
// stops the sweep promptly: completed cells still reach opt.Progress,
// and Sweep returns the context's error. opt.Seeds and opt.OnCell are
// ignored.
func Sweep(cfgs []RunConfig, opt SweepOptions) ([]*RunResult, error) {
	opt.Seeds, opt.OnCell = 1, nil
	reps, err := SweepSeeds(cfgs, opt)
	if err != nil {
		return nil, err
	}
	out := make([]*RunResult, len(reps))
	for i, rep := range reps {
		out[i] = rep.Runs[0]
	}
	return out, nil
}

// Replicated aggregates one cell's multi-seed replicates: mean, sample
// stddev and range for the headline metrics, plus the individual runs.
type Replicated struct {
	Config      RunConfig
	Runs        []*RunResult
	Makespan    sweep.Summary
	CostHour    sweep.Summary
	CostSecond  sweep.Summary
	Utilization sweep.Summary
	// Failures and Retries aggregate the injected-failure counters; all
	// zeros when the cell runs with FailureRate 0.
	Failures sweep.Summary
	Retries  sweep.Summary
	// OutageKills, LostWork and CheckpointBytes aggregate the
	// outage/checkpoint counters; all zeros at OutageRate 0 and
	// CheckpointInterval 0.
	OutageKills     sweep.Summary
	LostWork        sweep.Summary
	CheckpointBytes sweep.Summary
}

// ReplicateConfig derives the configuration for one replicate of a
// cell: replicate 0 is the cell itself (the paper's numbers lead every
// replication study), higher replicates reseed every active seed field
// from one derived value (scenario.Reseed) — provisioning and
// task-runtime jitter always vary together, and the failure and outage
// streams replicate with their own salts when their rates are non-zero.
func ReplicateConfig(cfg RunConfig, rep int) RunConfig {
	if rep == 0 {
		return cfg
	}
	c := cfg
	scenario.Reseed(&c, CellSeed(cfg, rep))
	if cfg.Workflow != nil {
		// A custom DAG carries its own jitter; AppSeed only
		// replicates for the generated paper apps.
		c.AppSeed = cfg.AppSeed
	}
	c.Replicate = rep
	return c
}

// aggregate reduces one cell's replicate runs — always in seed-index
// order, never completion order — to its Replicated summary.
func aggregate(cfg RunConfig, runs []*RunResult) Replicated {
	metric := func(f func(*RunResult) float64) sweep.Summary {
		xs := make([]float64, len(runs))
		for j, r := range runs {
			xs[j] = f(r)
		}
		return sweep.Summarize(xs)
	}
	return Replicated{
		Config:          cfg,
		Runs:            runs,
		Makespan:        metric(func(r *RunResult) float64 { return r.Makespan }),
		CostHour:        metric(func(r *RunResult) float64 { return r.CostHour.Total() }),
		CostSecond:      metric(func(r *RunResult) float64 { return r.CostSecond.Total() }),
		Utilization:     metric(func(r *RunResult) float64 { return r.Utilization }),
		Failures:        metric(func(r *RunResult) float64 { return float64(r.Failures) }),
		Retries:         metric(func(r *RunResult) float64 { return float64(r.Retries) }),
		OutageKills:     metric(func(r *RunResult) float64 { return float64(r.OutageKills) }),
		LostWork:        metric(func(r *RunResult) float64 { return r.LostWorkSeconds }),
		CheckpointBytes: metric(func(r *RunResult) float64 { return r.CheckpointBytes }),
	}
}

// SweepSeeds runs every cell opt.Seeds times with deterministic
// per-cell seed derivation (see CellSeed) and aggregates per cell
// through the two-level scheduler: each cell fans its replicates onto
// the shared worker pool as independent work items, so a single cell
// with -seeds 32 saturates the pool exactly like 32 cells would, and
// each cell's reduction accumulates in seed-index order regardless of
// which replicate finished first. With opt.OnCell set, aggregations
// stream in cell order while later cells are still running.
func SweepSeeds(cfgs []RunConfig, opt SweepOptions) ([]Replicated, error) {
	if err := validateCells(cfgs); err != nil {
		return nil, err
	}
	seeds := opt.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	out := make([]Replicated, len(cfgs))
	reduce := func(cell int, runs []*RunResult) {
		// Private copies, like Sweep's: callers may mutate results.
		copies := make([]*RunResult, len(runs))
		for j, r := range runs {
			c := *r // shallow copy: Cluster/Spans/Workflow are shared read-only
			copies[j] = &c
		}
		out[cell] = aggregate(cfgs[cell], copies)
		if opt.OnCell != nil {
			opt.OnCell(cell, out[cell])
		}
	}
	if _, err := opt.engine().MapReplicates(opt.ctx(), cfgs, seeds, ReplicateConfig, reduce); err != nil {
		return nil, err
	}
	return out, nil
}

// ResultJSON is the streaming-export row for one cell, shared by the
// wfbench -json dump and wfsim -json output.
type ResultJSON struct {
	App          string  `json:"app"`
	Storage      string  `json:"storage"`
	Workers      int     `json:"workers"`
	Seed         uint64  `json:"seed"`
	MakespanS    float64 `json:"makespan_s"`
	ProvisionS   float64 `json:"provision_s"`
	CostPerHour  float64 `json:"cost_per_hour"`
	CostPerSec   float64 `json:"cost_per_second"`
	Utilization  float64 `json:"utilization"`
	FailureRate  float64 `json:"failure_rate,omitempty"`
	Failures     int64   `json:"failures,omitempty"`
	Retries      int64   `json:"retries,omitempty"`
	OutageRate   float64 `json:"outage_rate,omitempty"`
	Outages      int64   `json:"outages,omitempty"`
	OutageKills  int64   `json:"outage_kills,omitempty"`
	CheckpointS  float64 `json:"checkpoint_interval_s,omitempty"`
	Checkpoints  int64   `json:"checkpoints,omitempty"`
	CheckpointB  float64 `json:"checkpoint_bytes,omitempty"`
	LostWorkS    float64 `json:"lost_work_s,omitempty"`
	NetworkBytes float64 `json:"network_bytes"`
	Gets         int64   `json:"s3_gets"`
	Puts         int64   `json:"s3_puts"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
}

// JSONRow flattens a result for machine-readable export.
func (r *RunResult) JSONRow() ResultJSON {
	return ResultJSON{
		App:          r.Config.App,
		Storage:      r.Config.Storage,
		Workers:      r.Config.Workers,
		Seed:         r.Config.EffectiveSeed(),
		MakespanS:    r.Makespan,
		ProvisionS:   r.ProvisionTime,
		CostPerHour:  r.CostHour.Total(),
		CostPerSec:   r.CostSecond.Total(),
		Utilization:  r.Utilization,
		FailureRate:  r.Config.FailureRate,
		Failures:     r.Failures,
		Retries:      r.Retries,
		OutageRate:   r.Config.OutageRate,
		Outages:      r.Outages,
		OutageKills:  r.OutageKills,
		CheckpointS:  r.Config.CheckpointInterval,
		Checkpoints:  r.Checkpoints,
		CheckpointB:  r.CheckpointBytes,
		LostWorkS:    r.LostWorkSeconds,
		NetworkBytes: r.Stats.NetworkBytes,
		Gets:         r.Stats.Gets,
		Puts:         r.Stats.Puts,
		CacheHits:    r.Stats.CacheHits,
		CacheMisses:  r.Stats.CacheMisses,
	}
}

// ReplicatedJSON is the aggregated export row for one multi-seed cell.
type ReplicatedJSON struct {
	App         string        `json:"app"`
	Storage     string        `json:"storage"`
	Workers     int           `json:"workers"`
	Seeds       int           `json:"seeds"`
	FailureRate float64       `json:"failure_rate,omitempty"`
	Makespan    sweep.Summary `json:"makespan_s"`
	CostPerHour sweep.Summary `json:"cost_per_hour"`
	CostPerSec  sweep.Summary `json:"cost_per_second"`
	Utilization sweep.Summary `json:"utilization"`
	Failures    sweep.Summary `json:"failures"`
	Retries     sweep.Summary `json:"retries"`
	OutageRate  float64       `json:"outage_rate,omitempty"`
	CheckpointS float64       `json:"checkpoint_interval_s,omitempty"`
	OutageKills sweep.Summary `json:"outage_kills"`
	LostWork    sweep.Summary `json:"lost_work_s"`
	CkptBytes   sweep.Summary `json:"checkpoint_bytes"`
}

// JSONRow flattens an aggregated cell for export.
func (r Replicated) JSONRow() ReplicatedJSON {
	return ReplicatedJSON{
		App:         r.Config.App,
		Storage:     r.Config.Storage,
		Workers:     r.Config.Workers,
		Seeds:       len(r.Runs),
		FailureRate: r.Config.FailureRate,
		Makespan:    r.Makespan,
		CostPerHour: r.CostHour,
		CostPerSec:  r.CostSecond,
		Utilization: r.Utilization,
		Failures:    r.Failures,
		Retries:     r.Retries,
		OutageRate:  r.Config.OutageRate,
		CheckpointS: r.Config.CheckpointInterval,
		OutageKills: r.OutageKills,
		LostWork:    r.LostWork,
		CkptBytes:   r.CheckpointBytes,
	}
}
