package harness

import (
	"fmt"
	"math"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/report"
	"ec2wfsim/internal/sweep"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

// The failure-sensitivity study quantifies what the paper's
// single-measurement, failure-free runs hide: real EC2 campaigns see
// transient task failures (spot hiccups, OOM kills, flaky mounts), and
// their cost depends on the storage system because every retry re-stages
// its inputs. Each application runs on each studied storage system at the
// canonical ladder of injected failure rates, or at one requested rate;
// every cell is compared against the failure-free baseline at the same
// seeds, so the reported inflation is a paired difference, not two
// independent measurements.

// FailureRates is the canonical rate ladder for the study, rate 0 (the
// paper's setting) leading as the baseline.
func FailureRates() []float64 { return []float64{0, 0.05, 0.1, 0.2, 0.4} }

// FaultStudyStorages lists the storage systems the failure and outage
// studies cross with each application: the sync-export NFS worst case,
// the paper's GlusterFS NUFA workhorse, PVFS, and S3 (whose client cache
// makes retries cheap). They span the data-placement spectrum outages
// stress: a central server, node-local NUFA placement, striping over
// every node and an external object store.
func FaultStudyStorages() []string {
	return []string{"nfs-sync", "gluster-nufa", "pvfs", "s3"}
}

// DefaultStudyWorkers is the cluster size the failure and outage studies
// run at — the paper's mid-scale 4-node configuration.
const DefaultStudyWorkers = 4

// StudyOptions configures the paired studies: FailureStudy, OutageStudy
// and ScaleStudy. The zero value runs each study's canonical matrix, and
// each study's doc comment names the fields it reads.
type StudyOptions struct {
	// Faults carries the fault knobs. A non-zero FailureRate or
	// OutageRate studies that one rate against the rate-0 baseline; zero
	// runs the canonical ladder (FailureRates or OutageRates).
	Faults wms.Faults
	// Sizes overrides the scale study's cluster-size ladder; sizes are
	// deduplicated and sorted, and the smallest size is the speedup
	// baseline.
	Sizes []int
	// Apps and Storages override the study matrix.
	Apps     []string
	Storages []string
	// Workers overrides the failure and outage studies' cluster size
	// (0 = DefaultStudyWorkers).
	Workers int
	// Build, if set, supplies the workflow per application — tests use it
	// to run scaled-down instances. Each cell gets its own instance.
	Build func(app string) (*workflow.Workflow, error)
	// Sweep carries parallelism, seeds and progress through to the sweep
	// engine; Seeds > 1 replicates every cell and puts ±stddev error
	// bars on the rendered figures.
	Sweep SweepOptions
}

// withMatrix fills the matrix fields a study leaves zero: every paper
// application, the study's storage systems and DefaultStudyWorkers.
func (o StudyOptions) withMatrix(storages []string) StudyOptions {
	if len(o.Apps) == 0 {
		o.Apps = apps.Names()
	}
	if len(o.Storages) == 0 {
		o.Storages = storages
	}
	if o.Workers <= 0 {
		o.Workers = DefaultStudyWorkers
	}
	return o
}

// rateLadder is the rates a fault study runs, the rate-0 baseline first:
// rate against the baseline, or the canonical ladder when rate is 0.
func rateLadder(rate float64, canonical []float64) []float64 {
	if rate == 0 {
		return canonical
	}
	return []float64{0, rate}
}

// PairedCell is one aggregated cell of the failure, outage or scale
// study, paired with its baseline: the same application and storage with
// no failures, outages or checkpointing, or at the smallest cluster size.
type PairedCell struct {
	Config   RunConfig  // the cell's configuration, study knobs included
	Rep      Replicated // aggregate over Sweep.Seeds replicates
	Baseline Replicated // the baseline aggregate for the same app/storage
}

// pairedSweep runs the o.Apps x o.Storages x arms matrix as one
// replicated batch and pairs each cell with its baseline, the first arm
// of its (app, storage) block. An arm is a cell configuration without
// App, Storage and Workflow; o.Build, if set, supplies each cell's
// workflow.
func pairedSweep(o StudyOptions, arms []RunConfig) ([]PairedCell, error) {
	var cfgs []RunConfig
	for _, app := range o.Apps {
		for _, sys := range o.Storages {
			for _, arm := range arms {
				cfg := arm
				cfg.App, cfg.Storage = app, sys
				if o.Build != nil {
					w, err := o.Build(app)
					if err != nil {
						return nil, err
					}
					cfg.Workflow = w
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	reps, err := SweepSeeds(cfgs, o.Sweep)
	if err != nil {
		return nil, err
	}
	cells := make([]PairedCell, len(reps))
	for i, rep := range reps {
		cells[i] = PairedCell{Config: cfgs[i], Rep: rep, Baseline: reps[i-i%len(arms)]}
	}
	return cells, nil
}

// Speedup is the makespan ratio over the smallest-size baseline (2 =
// twice as fast as the baseline cluster).
func (c PairedCell) Speedup() float64 {
	if c.Rep.Makespan.Mean <= 0 {
		return 0
	}
	return c.Baseline.Makespan.Mean / c.Rep.Makespan.Mean
}

// Efficiency is Speedup divided by the cluster-size ratio (1 = perfect
// linear scaling from the baseline size).
func (c PairedCell) Efficiency(baselineWorkers int) float64 {
	if c.Config.Workers <= 0 || baselineWorkers <= 0 {
		return 0
	}
	return c.Speedup() / (float64(c.Config.Workers) / float64(baselineWorkers))
}

// CostRatio is the per-second-billing cost ratio over the smallest-size
// baseline: > 1 means the larger cluster finished the workflow at a
// higher total cost.
func (c PairedCell) CostRatio() float64 {
	if c.Baseline.CostSecond.Mean <= 0 {
		return 0
	}
	return c.Rep.CostSecond.Mean / c.Baseline.CostSecond.Mean
}

// Checkpointed reports whether this cell runs the checkpoint/restart arm.
func (c PairedCell) Checkpointed() bool { return c.Config.CheckpointInterval > 0 }

// MakespanInflation is the relative makespan increase over the
// baseline (0.25 = 25% slower).
func (c PairedCell) MakespanInflation() float64 {
	if c.Baseline.Makespan.Mean <= 0 {
		return 0
	}
	return c.Rep.Makespan.Mean/c.Baseline.Makespan.Mean - 1
}

// MakespanDelta summarizes the per-replicate paired differences between
// this cell and its baseline. Replicate j of both cells shares its
// jitter seeds (CellSeed excludes the failure, outage and checkpoint
// fields), so pairing cancels the provisioning spread: the stddev here
// is the uncertainty of the overhead itself, not the raw run-to-run
// spread.
func (c PairedCell) MakespanDelta() sweep.Summary {
	n := len(c.Rep.Runs)
	if len(c.Baseline.Runs) < n {
		n = len(c.Baseline.Runs)
	}
	deltas := make([]float64, n)
	for j := 0; j < n; j++ {
		deltas[j] = c.Rep.Runs[j].Makespan - c.Baseline.Runs[j].Makespan
	}
	return sweep.Summarize(deltas)
}

// CostOverhead is the relative per-second-billing cost increase over
// the baseline. Per-second billing is the sensitive metric: per-hour
// charges round occupancy up, absorbing retry inflation until it
// crosses an hour boundary (visible in the rendered failure table,
// where the per-hour column barely moves).
func (c PairedCell) CostOverhead() float64 {
	if c.Baseline.CostSecond.Mean <= 0 {
		return 0
	}
	return c.Rep.CostSecond.Mean/c.Baseline.CostSecond.Mean - 1
}

// FailureStudy runs the failure-sensitivity study and renders it: a
// table reporting makespan inflation, retry counts and cost overhead
// versus the failure-free baseline, plus one per-application delta chart
// (±stddev whiskers when Sweep.Seeds > 1). It reads the failure knobs of
// o.Faults (FailureRate, MaxRetries, FailureSeed), o.Workers, o.Apps,
// o.Storages, o.Build and o.Sweep. All cells dispatch through the sweep
// engine as one batch, so the study parallelizes across apps, storages,
// rates and seeds at once and is bit-identical at any parallelism.
func FailureStudy(o StudyOptions) ([]PairedCell, string, error) {
	o = o.withMatrix(FaultStudyStorages())
	var arms []RunConfig
	for _, rate := range rateLadder(o.Faults.FailureRate, FailureRates()) {
		arm := RunConfig{Workers: o.Workers, Faults: wms.Faults{FailureRate: rate, MaxRetries: o.Faults.MaxRetries}}
		if rate != 0 {
			arm.FailureSeed = o.Faults.FailureSeed
		}
		arms = append(arms, arm)
	}
	// The first rate is 0, so each block's baseline is failure-free.
	cells, err := pairedSweep(o, arms)
	if err != nil {
		return nil, "", err
	}
	return cells, renderFailureStudy(o, cells), nil
}

// renderFailureStudy renders the study table and per-application
// makespan-overhead charts.
func renderFailureStudy(o StudyOptions, cells []PairedCell) string {
	t := &report.Table{
		Title: fmt.Sprintf("Failure-sensitivity study (%d workers, per-attempt failure rates, %d seed(s))",
			o.Workers, seedsOf(o.Sweep)),
		Header: []string{"Application", "Storage", "Rate", "Makespan (s)", "Inflation", "Failures", "Retries", "Cost/hr", "Cost/s", "Overhead/s"},
	}
	for _, c := range cells {
		inflation, overhead := "baseline", ""
		if c.Config.FailureRate > 0 {
			inflation = fmtPercent(c.MakespanInflation())
			overhead = fmtPercent(c.CostOverhead())
		}
		t.AddRow(
			c.Config.App,
			c.Config.Storage,
			fmt.Sprintf("%g", c.Config.FailureRate),
			fmtPM(c.Rep.Makespan, 0),
			inflation,
			fmtPM(c.Rep.Failures, 1),
			fmtPM(c.Rep.Retries, 1),
			units.USD(c.Rep.CostHour.Mean),
			units.USD(c.Rep.CostSecond.Mean),
			overhead,
		)
	}
	var b strings.Builder
	b.WriteString(t.String())
	writeDeltaCharts(&b, o.Apps, cells, "failure-free", func(c RunConfig) float64 { return c.FailureRate })
	return b.String()
}

// writeDeltaCharts appends one chart per application of each cell's
// paired makespan delta against its baseline, one bar per cell at a
// non-zero rate; rate reads the studied rate off a cell.
func writeDeltaCharts(b *strings.Builder, apps []string, cells []PairedCell, baseline string, rate func(RunConfig) float64) {
	for _, app := range apps {
		chart := &report.BarChart{
			Title: fmt.Sprintf("%s: makespan overhead vs %s baseline (s)", title(app), baseline),
			Unit:  "s",
		}
		for _, c := range cells {
			if c.Config.App != app || rate(c.Config) == 0 {
				continue
			}
			label := fmt.Sprintf("%s r=%g", c.Config.Storage, rate(c.Config))
			if c.Checkpointed() {
				label += " +ckpt"
			}
			d := c.MakespanDelta()
			chart.AddErr(label, d.Mean, d.Stddev)
		}
		b.WriteByte('\n')
		b.WriteString(chart.String())
	}
}

// fmtPM formats a summary as "mean ± stddev", dropping the band when
// there is no spread to report.
func fmtPM(s sweep.Summary, prec int) string {
	if s.N > 1 && s.Stddev > 0 {
		return fmt.Sprintf("%.*f ± %.*f", prec, s.Mean, prec, s.Stddev)
	}
	return fmt.Sprintf("%.*f", prec, s.Mean)
}

// fmtPercent formats a signed relative change.
func fmtPercent(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", v*100)
}

func seedsOf(opt SweepOptions) int {
	if opt.Seeds > 1 {
		return opt.Seeds
	}
	return 1
}
