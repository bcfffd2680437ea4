// Command wfbench regenerates every table and figure from the paper's
// evaluation: Table I, Figures 2-4 (runtime) and 5-7 (cost), the Section
// III.C disk characteristics, and the named ablation experiments (the
// README's "CLIs" section lists the common invocations).
// All experiment matrices dispatch through the concurrent sweep engine;
// results are bit-for-bit identical at any parallelism.
//
// The scenario knobs (-failure-rate, -max-retries, -failure-seed,
// -outage-rate, -outage-duration, -outage-seed, -checkpoint-interval)
// are registered from the shared option table (internal/scenario), so
// wfbench and wfsim stay in automatic parity; here they parameterize
// the failure/outage studies. -spec runs a whole serialized experiment
// (a wfsim -emit-spec file, or a hand-written grid) instead.
//
// Usage:
//
//	wfbench                      # everything
//	wfbench -fig 4               # one figure (2-7)
//	wfbench -fig 4 -seeds 5      # one figure with ±stddev error bars
//	wfbench -table1              # Table I only
//	wfbench -disk                # Section III.C disk table
//	wfbench -ablation s3cache
//	wfbench -ablation failures   # full failure-sensitivity study (rate ladder)
//	wfbench -failure-rate 0.1 -seeds 5  # failure study at one rate, error-barred
//	wfbench -ablation outages    # correlated-outage study (rate ladder x checkpointing)
//	wfbench -outage-rate 1 -seeds 5     # outage study at one rate, error-barred
//	wfbench -outage-rate 1 -checkpoint-interval 60  # custom checkpoint cadence
//	wfbench -ablation scale      # large-matrix study: cluster sizes {8,16,32}
//	wfbench -parallel 8          # bound concurrent cells (default: all cores)
//	wfbench -csv grid.csv        # full experiment grid as CSV
//	wfbench -json grid.jsonl     # full grid as JSON lines ("-" = stdout)
//	wfbench -seeds 5 -csv m.csv  # multi-seed replication with mean/stddev
//	wfbench -progress            # per-cell progress on stderr
//	wfbench -spec exp.json       # run a serialized experiment, JSON rows to stdout
//	wfbench -spec exp.json -events-dir logs/  # also record one .wfevt per cell
//	wfbench -cache-dir ~/.wfcache -json grid.jsonl  # persistent cross-run result cache
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/resultcache"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/sweep"
)

// replicatedStudies are the ablations that honour -seeds; the others
// render fixed single-seed cells.
var replicatedStudies = map[string]bool{"failures": true, "outages": true, "scale": true, "scale1000": true}

// replicatedModes names every mode -seeds replicates.
const replicatedModes = "figures, grid exports and the failures, outages, scale and scale1000 studies"

func main() {
	// Scenario knob flags come from the shared option table (identity
	// flags like -app/-storage/-nodes stay wfsim-only: wfbench sweeps
	// those axes itself).
	var spec scenario.Spec
	scenario.RegisterFlags(flag.CommandLine, &spec, false)

	fig := flag.Int("fig", 0, "regenerate one figure (2-7); 0 = all")
	table1 := flag.Bool("table1", false, "regenerate Table I only")
	diskTable := flag.Bool("disk", false, "print the Section III.C disk table only")
	ablation := flag.String("ablation", "", "run one ablation: "+strings.Join(harness.AblationNames(), ", "))
	csvPath := flag.String("csv", "", "write the full experiment grid (all apps) as CSV to this path")
	jsonPath := flag.String("json", "", "write the full experiment grid as JSON lines to this path (\"-\" = stdout)")
	parallel := flag.Int("parallel", 0, "max concurrent experiment cells; 0 = all cores")
	seeds := flag.Int("seeds", 1, "replicates per cell (±stddev error bars on figures, mean/stddev in -csv/-json exports)")
	cacheDir := flag.String("cache-dir", "", "persistent result cache directory shared across runs and users")
	progress := flag.Bool("progress", false, "report per-cell completion on stderr")
	specPath := flag.String("spec", "", "run the serialized experiment in this JSON file and print one JSON row per cell")
	eventsDir := flag.String("events-dir", "", "with -spec: record each cell's event log (.wfevt) into this directory")
	flag.Parse()

	if err := run(&spec, *specPath, *eventsDir, *cacheDir, *fig, *table1, *diskTable, *ablation, *csvPath, *jsonPath, *seeds, *parallel, *progress); err != nil {
		fmt.Fprintln(os.Stderr, "wfbench:", err)
		os.Exit(1)
	}
}

func run(spec *scenario.Spec, specPath, eventsDir, cacheDir string, fig int, table1, diskTable bool, ablation, csvPath, jsonPath string, seeds, parallel int, progress bool) error {
	if err := spec.Faults.Validate(); err != nil {
		return err
	}
	opt := harness.SweepOptions{Seeds: seeds, Parallel: parallel}
	if progress {
		opt.Progress = printProgress
	}
	if cacheDir != "" {
		store, err := resultcache.Open(cacheDir)
		if err != nil {
			return err
		}
		opt.Cache = store
		defer func() {
			hits, misses := store.Stats()
			fmt.Fprintf(os.Stderr, "wfbench: result cache %s: %d hit(s), %d miss(es)\n", cacheDir, hits, misses)
		}()
	}
	if specPath != "" {
		// The spec file carries the whole experiment; every other mode
		// or knob flag would fight it.
		allowed := map[string]bool{"spec": true, "parallel": true, "progress": true, "events-dir": true, "cache-dir": true}
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("-spec runs the whole experiment from the file; drop %s", strings.Join(conflicts, ", "))
		}
		return runSpec(specPath, eventsDir, opt)
	}
	if eventsDir != "" {
		return fmt.Errorf("-events-dir records the cells of a serialized experiment; add -spec")
	}
	failureStudy := spec.FailureRate > 0 || ablation == "failures"
	outageStudy := spec.OutageRate > 0 || ablation == "outages"
	if failureStudy && outageStudy {
		return fmt.Errorf("the failure and outage studies run separately; pick one of -failure-rate/-ablation failures and -outage-rate/-ablation outages")
	}
	if (failureStudy || outageStudy) && (csvPath != "" || jsonPath != "" || table1 || diskTable || fig != 0 ||
		((spec.FailureRate > 0 || spec.OutageRate > 0) && ablation != "")) {
		return fmt.Errorf("the failure/outage studies run alone; drop -csv/-json/-table1/-disk/-ablation/-fig")
	}
	if (spec.MaxRetries != 0 || spec.FailureSeed != 0) && !failureStudy {
		return fmt.Errorf("-max-retries and -failure-seed apply to the failure study; add -failure-rate or -ablation failures")
	}
	if (spec.OutageDuration != 0 || spec.OutageSeed != 0 || spec.CheckpointInterval != 0) && !outageStudy {
		return fmt.Errorf("-outage-duration, -outage-seed and -checkpoint-interval apply to the outage study; add -outage-rate or -ablation outages")
	}
	if seeds > 1 && (table1 || diskTable || (ablation != "" && !replicatedStudies[ablation])) {
		// Table I, the disk table and the fixed-cell ablations render the
		// paper's single measurements; failing loudly beats silently
		// printing unreplicated numbers under a -seeds flag.
		return fmt.Errorf("-seeds replicates %s; this mode renders single-seed numbers", replicatedModes)
	}
	// -failure-rate and -outage-rate study one rate; the studies' -ablation
	// names sweep the canonical ladders.
	if spec.FailureRate > 0 {
		ablation = "failures"
	} else if spec.OutageRate > 0 {
		ablation = "outages"
	}
	switch {
	case csvPath != "":
		return writeGrid(csvPath, opt, writeCSVRows)
	case jsonPath != "":
		return writeGrid(jsonPath, opt, writeJSONRows)
	case table1:
		return printTableI()
	case diskTable:
		fmt.Print(harness.DiskBench().String())
		return nil
	case ablation != "":
		// The knob checks above keep every fault knob zero unless the
		// study that reads it runs.
		_, out, err := harness.AblationSweep(ablation, harness.StudyOptions{Faults: spec.Faults, Sweep: opt})
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	case fig != 0:
		return printFigure(fig, opt)
	}
	// Everything, in paper order. One grid sweep feeds each runtime
	// figure and its cost companion (replicates are not memoized, so at
	// -seeds > 1 re-sweeping per figure would double the work).
	if seeds > 1 {
		fmt.Fprintf(os.Stderr, "wfbench: -seeds replicates %s; Table I, the disk table and the fixed-cell ablations remain single-measurement\n", replicatedModes)
	}
	if err := printTableI(); err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(harness.DiskBench().String())
	for f := 2; f <= 4; f++ {
		fmt.Println()
		out, costOut, _, err := harness.GridFigures(f, opt)
		if err != nil {
			return err
		}
		fmt.Print(out)
		fmt.Println()
		fmt.Print(costOut)
	}
	for _, name := range harness.AblationNames() {
		fmt.Println()
		_, out, err := harness.AblationSweep(name, harness.StudyOptions{Sweep: opt})
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	return nil
}

// runSpec runs a serialized experiment — a single cell or a whole grid,
// optionally replicated — and prints one indented JSON row per cell to
// stdout in grid order, streaming each row while later cells run. Specs
// with seeds > 1 print aggregated (mean/stddev) rows. A single-cell
// spec reproduces the corresponding `wfsim -json` output byte for byte.
// With eventsDir set, each cell's structured event log is additionally
// recorded into that directory as a replayable .wfevt file.
func runSpec(path, eventsDir string, opt harness.SweepOptions) error {
	e, err := scenario.ReadFile(path)
	if err != nil {
		return err
	}
	cfgs, err := e.Cells()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if eventsDir != "" {
		if e.Seeds > 1 {
			return fmt.Errorf("-events-dir records single executions; drop the spec's seeds")
		}
		return runSpecRecorded(cfgs, eventsDir, opt.Parallel, enc)
	}
	opt.Seeds = e.Seeds
	return streamReps(cfgs, opt, func(r harness.Replicated) error {
		return enc.Encode(jsonRow(r))
	})
}

// runSpecRecorded runs the experiment's cells through the recorded
// sweep, writes one .wfevt per cell into dir, and prints the usual JSON
// rows. File names are cell-ordinal plus the cell's identity, so a
// grid's logs sort in grid order and pair naturally for wfreplay diff.
func runSpecRecorded(cfgs []harness.RunConfig, dir string, parallel int, enc *json.Encoder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	recorded, err := harness.SweepRecorded(cfgs, parallel)
	if err != nil {
		return err
	}
	for i, cell := range recorded {
		cfg := cfgs[i]
		name := fmt.Sprintf("cell-%03d_%s_%s_w%d.wfevt", i, cfg.App, cfg.Storage, cfg.Workers)
		if err := os.WriteFile(filepath.Join(dir, name), cell.Log, 0o644); err != nil {
			return err
		}
		if err := enc.Encode(cell.Result.JSONRow()); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wfbench: wrote %d event logs to %s\n", len(recorded), dir)
	return nil
}

// printProgress reports one completed cell on stderr.
func printProgress(u sweep.Update[harness.RunConfig, *harness.RunResult]) {
	status := "ran"
	if u.Cached {
		status = "cached"
	}
	if u.Err != nil {
		status = "error: " + u.Err.Error()
	}
	fmt.Fprintf(os.Stderr, "[%d/%d] %s on %s n=%d (%s)\n",
		u.Done, u.Total, u.Config.App, u.Config.Storage, u.Config.Workers, status)
}

// gridWriter emits the export for one grid. Rows stream through
// streamReps in cell order while later cells run, so exports are
// byte-identical at any parallelism.
type gridWriter func(w io.Writer, cfgs []harness.RunConfig, opt harness.SweepOptions) error

// writeGrid dumps the full (application x storage x nodes) grid — the
// raw data behind every figure, ready for external analysis.
func writeGrid(path string, opt harness.SweepOptions, write gridWriter) error {
	var cfgs []harness.RunConfig
	for _, app := range apps.Names() {
		cfgs = append(cfgs, harness.GridConfigs(app)...)
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	bw := bufio.NewWriter(out)
	if err := write(bw, cfgs, opt); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("wrote experiment grid to %s\n", path)
	}
	return nil
}

func writeCSVRows(w io.Writer, cfgs []harness.RunConfig, opt harness.SweepOptions) error {
	header := []string{"app", "storage", "nodes", "makespan_s", "cost_per_hour", "cost_per_second",
		"utilization", "network_bytes", "s3_gets", "s3_puts", "cache_hits", "cache_misses"}
	row := func(rep harness.Replicated) []string {
		r := rep.Runs[0]
		return []string{
			r.Config.App, r.Config.Storage, fmt.Sprint(r.Config.Workers),
			fmt.Sprintf("%.1f", r.Makespan),
			fmt.Sprintf("%.2f", r.CostHour.Total()),
			fmt.Sprintf("%.4f", r.CostSecond.Total()),
			fmt.Sprintf("%.3f", r.Utilization),
			fmt.Sprintf("%.0f", r.Stats.NetworkBytes),
			fmt.Sprint(r.Stats.Gets), fmt.Sprint(r.Stats.Puts),
			fmt.Sprint(r.Stats.CacheHits), fmt.Sprint(r.Stats.CacheMisses),
		}
	}
	if opt.Seeds > 1 {
		header = []string{"app", "storage", "nodes", "seeds",
			"makespan_mean_s", "makespan_stddev_s", "makespan_min_s", "makespan_max_s",
			"cost_per_hour_mean", "cost_per_hour_stddev",
			"cost_per_second_mean", "cost_per_second_stddev",
			"utilization_mean"}
		row = func(r harness.Replicated) []string {
			return []string{
				r.Config.App, r.Config.Storage, fmt.Sprint(r.Config.Workers), fmt.Sprint(len(r.Runs)),
				fmt.Sprintf("%.1f", r.Makespan.Mean), fmt.Sprintf("%.2f", r.Makespan.Stddev),
				fmt.Sprintf("%.1f", r.Makespan.Min), fmt.Sprintf("%.1f", r.Makespan.Max),
				fmt.Sprintf("%.2f", r.CostHour.Mean), fmt.Sprintf("%.4f", r.CostHour.Stddev),
				fmt.Sprintf("%.4f", r.CostSecond.Mean), fmt.Sprintf("%.6f", r.CostSecond.Stddev),
				fmt.Sprintf("%.3f", r.Utilization.Mean),
			}
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := streamReps(cfgs, opt, func(r harness.Replicated) error { return cw.Write(row(r)) }); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// streamReps sweeps the cells and emits each one while later cells (and
// their replicates) are still running. SweepSeeds delivers OnCell in
// cell order, so the export is byte-identical at any parallelism,
// including replicate-level splits of one cell.
func streamReps(cfgs []harness.RunConfig, opt harness.SweepOptions, emit func(harness.Replicated) error) error {
	var emitErr error
	prev := opt.OnCell
	opt.OnCell = func(cell int, rep harness.Replicated) {
		if prev != nil {
			prev(cell, rep)
		}
		if emitErr == nil {
			emitErr = emit(rep)
		}
	}
	if _, err := harness.SweepSeeds(cfgs, opt); err != nil {
		return err
	}
	return emitErr
}

func writeJSONRows(w io.Writer, cfgs []harness.RunConfig, opt harness.SweepOptions) error {
	enc := json.NewEncoder(w)
	return streamReps(cfgs, opt, func(r harness.Replicated) error {
		return enc.Encode(jsonRow(r))
	})
}

// jsonRow is a cell's JSON export row: the run's own metrics at one
// seed, the replicate aggregation at more.
func jsonRow(r harness.Replicated) any {
	if len(r.Runs) == 1 {
		return r.Runs[0].JSONRow()
	}
	return r.JSONRow()
}

func printTableI() error {
	t, err := harness.TableI()
	if err != nil {
		return err
	}
	fmt.Print(t.String())
	return nil
}

// printFigure prints one figure: a runtime figure (2-4), or the cost
// figure (5-7) that the same grid sweep renders.
func printFigure(fig int, opt harness.SweepOptions) error {
	if fig < 2 || fig > 7 {
		return fmt.Errorf("figure %d not in the paper (want 2-7)", fig)
	}
	cost := fig > 4
	if cost {
		fig -= 3
	}
	runtimeOut, costOut, _, err := harness.GridFigures(fig, opt)
	if err != nil {
		return err
	}
	if cost {
		runtimeOut = costOut
	}
	fmt.Print(runtimeOut)
	return nil
}
