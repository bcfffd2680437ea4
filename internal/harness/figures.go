package harness

import (
	"fmt"
	"strings"

	"ec2wfsim/internal/disk"
	"ec2wfsim/internal/report"
	"ec2wfsim/internal/sweep"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/wfprof"
)

// appForFigure maps the paper's runtime figures to applications; cost
// figures 5-7 follow runtime figures 2-4.
var appForFigure = map[int]string{
	2: "montage",
	3: "epigenome",
	4: "broadband",
}

// TableI regenerates the paper's application resource-usage comparison.
// The three application profiles dispatch through the sweep engine (one
// profile per application, on every core) and share the cached
// paper-scale DAGs with the figure grids.
func TableI() (*report.Table, error) {
	eng := &sweep.Engine[string, [4]string]{
		Run: func(name string) ([4]string, error) {
			w, err := paperWorkflow(name, 0)
			if err != nil {
				return [4]string{}, err
			}
			p := wfprof.Analyze(w)
			return [4]string{title(name), p.IOClass.String(), p.MemoryClass.String(), p.CPUClass.String()}, nil
		},
	}
	// Table I's row order, not apps.Names()'s.
	rows, err := eng.Map([]string{"montage", "broadband", "epigenome"})
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "TABLE I — APPLICATION RESOURCE USAGE COMPARISON",
		Header: []string{"Application", "I/O", "Memory", "CPU"},
	}
	for _, row := range rows {
		t.AddRow(row[0], row[1], row[2], row[3])
	}
	return t, nil
}

// runtimeChart renders a runtime figure from a replicated grid, with
// ±stddev whiskers whenever the sweep carried more than one seed.
func runtimeChart(fig int, app string, reps []Replicated) string {
	chart := &report.BarChart{
		Title: fmt.Sprintf("Fig. %d. Performance of %s using different storage systems (makespan, seconds)",
			fig, title(app)),
		Unit: "s",
	}
	for _, rep := range reps {
		chart.AddErr(fmt.Sprintf("%s n=%d", rep.Config.Storage, rep.Config.Workers),
			rep.Makespan.Mean, rep.Makespan.Stddev)
	}
	return chart.String()
}

// costCharts renders a cost figure (top per-hour, bottom per-second)
// from a replicated grid, with ±stddev whiskers when replicated.
func costCharts(fig int, app string, reps []Replicated) string {
	var b strings.Builder
	hour := &report.BarChart{
		Title: fmt.Sprintf("Fig. %d (top). %s cost assuming per-hour charges ($)", fig, title(app)),
		Unit:  "$",
	}
	sec := &report.BarChart{
		Title: fmt.Sprintf("Fig. %d (bottom). %s cost assuming per-second charges ($)", fig, title(app)),
		Unit:  "$",
	}
	for _, rep := range reps {
		label := fmt.Sprintf("%s n=%d", rep.Config.Storage, rep.Config.Workers)
		hour.AddErr(label, rep.CostHour.Mean, rep.CostHour.Stddev)
		sec.AddErr(label, rep.CostSecond.Mean, rep.CostSecond.Stddev)
	}
	b.WriteString(hour.String())
	b.WriteByte('\n')
	b.WriteString(sec.String())
	return b.String()
}

// GridFigures regenerates a runtime figure (2-4) and its cost companion
// (5-7) from one sweep of the application's grid, so multi-seed
// replicates — which are not memoized — run once and feed both charts'
// error bars.
func GridFigures(fig int, opt SweepOptions) (runtime, cost string, err error) {
	app, ok := appForFigure[fig]
	if !ok {
		return "", "", fmt.Errorf("harness: runtime figures are 2-4, got %d", fig)
	}
	reps, err := SweepSeeds(GridConfigs(app), opt)
	if err != nil {
		return "", "", err
	}
	return runtimeChart(fig, app, reps), costCharts(fig+3, app, reps), nil
}

// DiskBench reproduces the Section III.C ephemeral-disk observations as a
// table (experiment E-D1).
func DiskBench() *report.Table {
	t := &report.Table{
		Title:  "Section III.C — ephemeral disk characteristics (model values)",
		Header: []string{"Configuration", "First write", "Subsequent write", "Read", "Zero-init 50 GB"},
	}
	add := func(name string, first, steady, read float64) {
		t.AddRow(name, units.Rate(first), units.Rate(steady), units.Rate(read),
			units.Duration(50*units.GB/first))
	}
	single := disk.EphemeralSingle()
	raid := disk.RAID0(single, 4)
	add("1 ephemeral disk", single.FirstWrite, single.SteadyWrite, single.Read)
	add("RAID0 x 4 disks", raid.FirstWrite, raid.SteadyWrite, raid.Read)
	return t
}

// title capitalizes an application name for display.
func title(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
