package harness

import (
	"fmt"
	"strings"

	"ec2wfsim/internal/report"
	"ec2wfsim/internal/sweep"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/wfprof"
)

// appForFigure maps the paper's runtime figures to applications.
var appForFigure = map[int]string{
	2: "montage",
	3: "epigenome",
	4: "broadband",
	5: "montage",
	6: "epigenome",
	7: "broadband",
}

// TableI regenerates the paper's application resource-usage comparison.
// The three application profiles dispatch through the sweep engine (one
// cell per application) and share the cached paper-scale DAGs with the
// figure grids.
func TableI() (*report.Table, error) {
	eng := &sweep.Engine[string, [4]string]{
		Run: func(name string) ([4]string, error) {
			w, err := paperWorkflow(name)
			if err != nil {
				return [4]string{}, err
			}
			p := wfprof.Analyze(w)
			return [4]string{title(name), p.IOClass.String(), p.MemoryClass.String(), p.CPUClass.String()}, nil
		},
		Parallel: defaultParallel(),
	}
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

// gridReps sweeps an application's grid with opt.Seeds replicates per
// cell. At Seeds <= 1 this degenerates to the paper's single-seed grid
// (replicate 0 is the cell's own seed and stays memoized), so the
// single- and multi-seed figure paths share one implementation.
func gridReps(app string, opt SweepOptions) ([]Replicated, []Cell, error) {
	cfgs := GridConfigs(app)
	reps, err := SweepSeeds(cfgs, opt)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]Cell, len(reps))
	for i, rep := range reps {
		cells[i] = Cell{System: cfgs[i].Storage, Workers: cfgs[i].Workers, Result: rep.Runs[0]}
	}
	return reps, cells, nil
}

// runtimeChart renders a runtime figure from a replicated grid, with
// ±stddev whiskers whenever the sweep carried more than one seed.
func runtimeChart(fig int, app string, reps []Replicated, cells []Cell) string {
	chart := &report.BarChart{
		Title: fmt.Sprintf("Fig. %d. Performance of %s using different storage systems (makespan, seconds)",
			fig, title(app)),
		Unit: "s",
	}
	for i, c := range cells {
		chart.AddErr(fmt.Sprintf("%s n=%d", c.System, c.Workers),
			reps[i].Makespan.Mean, reps[i].Makespan.Stddev)
	}
	return chart.String()
}

// costCharts renders a cost figure (top per-hour, bottom per-second)
// from a replicated grid, with ±stddev whiskers when replicated.
func costCharts(fig int, app string, reps []Replicated, cells []Cell) string {
	var b strings.Builder
	hour := &report.BarChart{
		Title: fmt.Sprintf("Fig. %d (top). %s cost assuming per-hour charges ($)", fig, title(app)),
		Unit:  "$",
	}
	sec := &report.BarChart{
		Title: fmt.Sprintf("Fig. %d (bottom). %s cost assuming per-second charges ($)", fig, title(app)),
		Unit:  "$",
	}
	for i, c := range cells {
		label := fmt.Sprintf("%s n=%d", c.System, c.Workers)
		hour.AddErr(label, reps[i].CostHour.Mean, reps[i].CostHour.Stddev)
		sec.AddErr(label, reps[i].CostSecond.Mean, reps[i].CostSecond.Stddev)
	}
	b.WriteString(hour.String())
	b.WriteByte('\n')
	b.WriteString(sec.String())
	return b.String()
}

// RuntimeFigureSweep regenerates Figure 2, 3 or 4: makespan for the
// application across storage systems and cluster sizes, swept with opt
// (parallelism, replication, progress callbacks). With opt.Seeds > 1 the
// bars carry mean ± stddev error bands.
func RuntimeFigureSweep(fig int, opt SweepOptions) (string, []Cell, error) {
	app, ok := appForFigure[fig]
	if !ok || fig > 4 {
		return "", nil, fmt.Errorf("harness: runtime figures are 2-4, got %d", fig)
	}
	reps, cells, err := gridReps(app, opt)
	if err != nil {
		return "", nil, err
	}
	return runtimeChart(fig, app, reps, cells), cells, nil
}

// GridFigures renders a runtime figure (2-4) and its cost companion
// (5-7) from one grid sweep, so multi-seed replicates — which are not
// memoized — run once and feed both charts' error bars.
func GridFigures(fig int, opt SweepOptions) (runtime, cost string, cells []Cell, err error) {
	app, ok := appForFigure[fig]
	if !ok || fig > 4 {
		return "", "", nil, fmt.Errorf("harness: runtime figures are 2-4, got %d", fig)
	}
	reps, cells, err := gridReps(app, opt)
	if err != nil {
		return "", "", nil, err
	}
	return runtimeChart(fig, app, reps, cells), costCharts(fig+3, app, reps, cells), cells, nil
}

// CostFigureSweep regenerates Figure 5, 6 or 7: per-hour and
// per-second cost for the application across storage systems and
// cluster sizes. The paper derives its cost figures from the runtime
// grid's runs, so the memoized runtime cells are reused; with
// opt.Seeds > 1 the bars carry mean ± stddev error bands.
func CostFigureSweep(fig int, opt SweepOptions) (string, []Cell, error) {
	app, ok := appForFigure[fig]
	if !ok || fig < 5 {
		return "", nil, fmt.Errorf("harness: cost figures are 5-7, got %d", fig)
	}
	reps, cells, err := gridReps(app, opt)
	if err != nil {
		return "", nil, err
	}
	return costCharts(fig, app, reps, cells), cells, nil
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
	single := diskSingle()
	raid := diskRAID0x4()
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
