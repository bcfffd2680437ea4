package harness

import (
	"fmt"
	"strings"

	"ec2wfsim/internal/report"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/wms"
)

// The outage-ablation study quantifies the failure regime the
// i.i.d.-failure study cannot: real EC2 campaigns lose whole nodes at
// once (spot reclamation, hardware retirement), which hits data-owning
// backends very differently than independent task kills — a dead
// GlusterFS NUFA or PVFS node takes its files offline with it, while S3
// only loses a node's local cache. Each application runs on each of the
// failure study's storage systems (FaultStudyStorages) at the canonical
// ladder of outage rates, or at one requested rate, with and without
// checkpoint/restart. Every cell is compared against the outage-free,
// checkpoint-free baseline at the same jitter seeds, so inflation and
// cost overhead are paired differences. StudyOptions configures it, as
// it does the failure and scale studies.

// OutageRates is the canonical rate ladder (expected outages per node
// per hour), rate 0 — the paper's setting — leading as the baseline.
func OutageRates() []float64 { return []float64{0, 0.5, 1, 2} }

// DefaultOutageStudyCheckpoint is the checkpointed arm's interval in
// seconds: a cadence short enough to matter for the long-running tasks
// that dominate lost work.
const DefaultOutageStudyCheckpoint = 120.0

// OutageStudy runs the outage-ablation study and renders it: a table
// reporting makespan inflation, outage kills, lost-work seconds,
// checkpoint overhead bytes and cost overhead versus the outage-free
// baseline, plus one per-application delta chart (±stddev whiskers when
// Sweep.Seeds > 1). It reads the outage knobs of o.Faults (OutageRate,
// OutageDuration, OutageSeed) and its CheckpointInterval, the
// checkpointed arm's cadence (0 = DefaultOutageStudyCheckpoint), plus
// o.Workers, o.Apps, o.Storages, o.Build and o.Sweep. All cells dispatch
// through the sweep engine as one batch, so the study parallelizes
// across apps, storages, rates, checkpoint arms and seeds at once and is
// bit-identical at any parallelism.
func OutageStudy(o StudyOptions) ([]PairedCell, string, error) {
	o = o.withMatrix(FaultStudyStorages())
	f := &o.Faults
	if f.OutageDuration == 0 {
		f.OutageDuration = wms.DefaultOutageDuration
	}
	if f.CheckpointInterval == 0 {
		f.CheckpointInterval = DefaultOutageStudyCheckpoint
	}
	// Per (app, storage): the no-checkpoint arm across the rate ladder,
	// then the checkpointed arm. The block's first cell (rate 0, no
	// checkpoint) is the shared baseline, so checkpoint overhead at rate
	// 0 is visible as its own row.
	rates := rateLadder(f.OutageRate, OutageRates())
	var arms []RunConfig
	for _, interval := range []float64{0, f.CheckpointInterval} {
		for _, rate := range rates {
			arm := RunConfig{Workers: o.Workers, Faults: wms.Faults{OutageRate: rate, CheckpointInterval: interval}}
			if rate != 0 {
				arm.OutageDuration, arm.OutageSeed = f.OutageDuration, f.OutageSeed
			}
			arms = append(arms, arm)
		}
	}
	cells, err := pairedSweep(o, arms)
	if err != nil {
		return nil, "", err
	}
	return cells, renderOutageStudy(o, cells), nil
}

// renderOutageStudy renders the study table and per-application
// makespan-overhead charts.
func renderOutageStudy(o StudyOptions, cells []PairedCell) string {
	t := &report.Table{
		Title: fmt.Sprintf("Outage-ablation study (%d workers, outages/node-hour, mean outage %s, checkpoint interval %s, %d seed(s))",
			o.Workers, units.Duration(o.Faults.OutageDuration), units.Duration(o.Faults.CheckpointInterval), seedsOf(o.Sweep)),
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
	writeDeltaCharts(&b, o.Apps, cells, "outage-free", func(c RunConfig) float64 { return c.OutageRate })
	return b.String()
}
