package harness

import (
	"fmt"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/report"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

// The outage-ablation study quantifies the failure regime the
// i.i.d.-failure study cannot: real EC2 campaigns lose whole nodes at
// once (spot reclamation, hardware retirement), which hits data-owning
// backends very differently than independent task kills — a dead
// GlusterFS NUFA or PVFS node takes its files offline with it, while S3
// only loses a node's local cache. Each application runs on each
// studied storage system at a ladder of outage rates, with and without
// checkpoint/restart, and every cell is compared against the
// outage-free, checkpoint-free baseline at the same jitter seeds, so
// inflation and cost overhead are paired differences.

// OutageRates is the canonical rate ladder (expected outages per node
// per hour), rate 0 — the paper's setting — leading as the baseline.
func OutageRates() []float64 { return []float64{0, 0.5, 1, 2} }

// OutageStudyStorages lists the storage systems the study crosses with
// each application: the same four as the failure study, chosen because
// they span the data-placement spectrum outages stress (central server,
// node-local NUFA placement, striping over every node, external object
// store).
func OutageStudyStorages() []string {
	return []string{"nfs-sync", "gluster-nufa", "pvfs", "s3"}
}

// Default shape of the canonical study: the paper's mid-scale 4-node
// configuration, reboot-scale outages, and a checkpoint cadence short
// enough to matter for the long-running tasks that dominate lost work.
const (
	DefaultOutageStudyWorkers    = 4
	DefaultOutageStudyDuration   = 120.0 // mean outage seconds
	DefaultOutageStudyCheckpoint = 120.0 // checkpointed-arm interval, seconds
)

// OutageStudyOptions configures an outage-ablation study. The zero
// value runs the canonical study: every paper application on
// OutageStudyStorages at OutageRates, each rate with and without
// checkpointing, at 4 workers.
type OutageStudyOptions struct {
	// Rates overrides the outage-rate ladder; a 0 baseline is prepended
	// when missing, and rates are deduplicated and sorted.
	Rates []float64
	// Duration overrides the mean outage length (0 = the study default).
	Duration float64
	// CheckpointInterval overrides the checkpointed arm's cadence
	// (0 = the study default). The no-checkpoint arm always runs at 0.
	CheckpointInterval float64
	// OutageSeed drives the outage schedule of every outage cell
	// (0 = the fixed default). The rate-0 baselines ignore it.
	OutageSeed uint64
	// Apps and Storages override the study matrix.
	Apps     []string
	Storages []string
	// Workers overrides the cluster size (0 = DefaultOutageStudyWorkers).
	Workers int
	// Build, if set, supplies the workflow per application — tests use it
	// to run scaled-down instances. Each cell gets its own instance.
	Build func(app string) (*workflow.Workflow, error)
	// Sweep carries parallelism, seeds and progress through to the sweep
	// engine; Seeds > 1 replicates every cell and puts ±stddev error
	// bars on the rendered figures.
	Sweep SweepOptions
}

func (o *OutageStudyOptions) normalize() {
	if len(o.Rates) == 0 {
		o.Rates = OutageRates()
	}
	o.Rates = normalizeRates(o.Rates)
	if o.Duration <= 0 {
		o.Duration = DefaultOutageStudyDuration
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = DefaultOutageStudyCheckpoint
	}
	if len(o.Apps) == 0 {
		o.Apps = apps.Names()
	}
	if len(o.Storages) == 0 {
		o.Storages = OutageStudyStorages()
	}
	if o.Workers <= 0 {
		o.Workers = DefaultOutageStudyWorkers
	}
}

// OutageCell is one (application, storage, checkpoint, rate) cell of
// the outage study; its baseline is the rate-0 no-checkpoint cell.
type OutageCell = PairedCell

// OutageStudy runs the outage-ablation study and renders it: a table
// reporting makespan inflation, outage kills, lost-work seconds,
// checkpoint overhead bytes and cost overhead versus the outage-free
// baseline, plus one per-application delta chart (±stddev whiskers when
// Sweep.Seeds > 1). All cells dispatch through the sweep engine as one
// batch, so the study parallelizes across apps, storages, rates,
// checkpoint arms and seeds at once and is bit-identical at any
// parallelism.
func OutageStudy(o OutageStudyOptions) ([]OutageCell, string, error) {
	o.normalize()
	// Per (app, storage): the no-checkpoint arm across the rate ladder,
	// then the checkpointed arm. The block's first cell (rate 0, no
	// checkpoint) is the shared baseline, so checkpoint overhead at rate
	// 0 is visible as its own row.
	var arms []RunConfig
	for _, interval := range []float64{0, o.CheckpointInterval} {
		for _, rate := range o.Rates {
			arm := RunConfig{Workers: o.Workers, Faults: wms.Faults{OutageRate: rate, CheckpointInterval: interval}}
			if rate > 0 {
				arm.OutageDuration = o.Duration
				arm.OutageSeed = o.OutageSeed
			}
			arms = append(arms, arm)
		}
	}
	cells, err := pairedSweep(o.Apps, o.Storages, arms, o.Build, o.Sweep)
	if err != nil {
		return nil, "", err
	}
	return cells, renderOutageStudy(o, cells), nil
}

// renderOutageStudy renders the study table and per-application
// makespan-overhead charts.
func renderOutageStudy(o OutageStudyOptions, cells []OutageCell) string {
	t := &report.Table{
		Title: fmt.Sprintf("Outage-ablation study (%d workers, outages/node-hour, mean outage %s, checkpoint interval %s, %d seed(s))",
			o.Workers, units.Duration(o.Duration), units.Duration(o.CheckpointInterval), seedsOf(o.Sweep)),
		Header: []string{"Application", "Storage", "Ckpt", "Rate", "Makespan (s)", "Inflation", "Kills", "Lost work (s)", "Ckpt bytes", "Cost/s", "Overhead/s"},
	}
	for _, c := range cells {
		inflation, overhead := "baseline", ""
		if c.Config.OutageRate > 0 || c.Checkpointed() {
			inflation = fmtPercent(c.MakespanInflation())
			overhead = fmtPercent(c.CostOverhead())
		}
		ckpt := "off"
		if c.Checkpointed() {
			ckpt = "on"
		}
		t.AddRow(
			c.Config.App,
			c.Config.Storage,
			ckpt,
			fmt.Sprintf("%g", c.Config.OutageRate),
			fmtPM(c.Rep.Makespan, 0),
			inflation,
			fmtPM(c.Rep.OutageKills, 1),
			fmtPM(c.Rep.LostWork, 0),
			units.Bytes(c.Rep.CheckpointBytes.Mean),
			units.USD(c.Rep.CostSecond.Mean),
			overhead,
		)
	}
	var b strings.Builder
	b.WriteString(t.String())
	for _, app := range o.Apps {
		chart := &report.BarChart{
			Title: fmt.Sprintf("%s: makespan overhead vs outage-free baseline (s)", title(app)),
			Unit:  "s",
		}
		for _, c := range cells {
			if c.Config.App != app || c.Config.OutageRate == 0 {
				continue
			}
			label := fmt.Sprintf("%s r=%g", c.Config.Storage, c.Config.OutageRate)
			if c.Checkpointed() {
				label += " +ckpt"
			}
			d := c.MakespanDelta()
			chart.AddErr(label, d.Mean, d.Stddev)
		}
		b.WriteByte('\n')
		b.WriteString(chart.String())
	}
	return b.String()
}
