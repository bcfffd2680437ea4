// Command wfsim runs a single (application x storage x cluster-size)
// experiment from the paper and prints the makespan, cost and storage
// counters — optionally with a Gantt chart of the execution, or
// replicated across seeds for a mean/stddev confidence band.
//
// Every scenario flag is registered from the shared option table
// (internal/scenario), so wfsim and wfbench stay in automatic parity;
// -emit-spec serializes the configured run as a JSON experiment spec
// and -spec runs one back.
//
// Usage:
//
//	wfsim -app montage -storage gluster-nufa -nodes 4
//	wfsim -app broadband -storage s3 -nodes 8 -gantt
//	wfsim -app epigenome -storage nfs -nodes 2 -data-aware
//	wfsim -app montage -storage nfs -nodes 4 -seeds 10 -parallel 4
//	wfsim -app broadband -storage s3 -nodes 4 -json
//	wfsim -app montage -storage pvfs -nodes 4 -failure-rate 0.1 -max-retries 5
//	wfsim -app montage -storage pvfs -nodes 4 -outage-rate 1 -checkpoint-interval 120
//	wfsim -app montage -storage nfs -nodes 2 -worker-type m1.large
//	wfsim -app montage -storage nfs -nodes 2 -emit-spec run.json
//	wfsim -spec run.json -json
//	wfsim -app montage -storage nfs -nodes 2 -events run.wfevt
//	wfsim -app montage -storage nfs -nodes 4 -seeds 32 -cache-dir ~/.cache/wf  # replicates cached across runs
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/resultcache"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/trace"
	"ec2wfsim/internal/units"
)

func main() {
	// Scenario flags come from the shared option table; the defaults are
	// the paper's mid-scale GlusterFS cell.
	spec := scenario.Spec{App: "montage", Storage: "gluster-nufa", Workers: 2}
	scenario.RegisterFlags(flag.CommandLine, &spec, true)

	gantt := flag.Bool("gantt", false, "print a per-node Gantt chart")
	csvPath := flag.String("csv", "", "write the execution trace as CSV to this path")
	eventsPath := flag.String("events", "", "record the run's structured event log (.wfevt) to this path; replay it with wfreplay")
	seeds := flag.Int("seeds", 1, "replicate the run across this many derived seeds and report mean/stddev")
	parallel := flag.Int("parallel", 0, "max concurrent replicates; 0 = all cores")
	cacheDir := flag.String("cache-dir", "", "persistent result cache directory shared across runs (metric outputs only; -gantt/-csv/-events always simulate)")
	jsonOut := flag.Bool("json", false, "print the result as JSON instead of text")
	specPath := flag.String("spec", "", "run the single-cell experiment spec in this JSON file (grids: wfbench -spec)")
	emitSpec := flag.String("emit-spec", "", "write the configured run as a JSON experiment spec to this path (\"-\" = stdout) and exit")
	flag.Parse()

	if err := run(&spec, *specPath, *emitSpec, *cacheDir, *seeds, *parallel, *gantt, *csvPath, *eventsPath, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "wfsim:", err)
		os.Exit(1)
	}
}

func run(spec *scenario.Spec, specPath, emitSpec, cacheDir string, seeds, parallel int, gantt bool, csvPath, eventsPath string, jsonOut bool) error {
	var store *resultcache.Store
	if cacheDir != "" {
		var err error
		store, err = resultcache.Open(cacheDir)
		if err != nil {
			return err
		}
		defer func() {
			hits, misses := store.Stats()
			fmt.Fprintf(os.Stderr, "wfsim: result cache %s: %d hit(s), %d miss(es)\n", cacheDir, hits, misses)
		}()
	}
	if specPath != "" {
		// The file is the whole scenario; scenario flags (and -seeds,
		// which the spec carries) would silently fight it.
		conflicting := append(scenario.FlagNames(true), "seeds")
		if set := setFlags(conflicting); len(set) > 0 {
			return fmt.Errorf("-spec carries the whole scenario; drop %s", strings.Join(set, ", "))
		}
		e, err := scenario.ReadFile(specPath)
		if err != nil {
			return err
		}
		cells, err := e.Cells()
		if err != nil {
			return err
		}
		if len(cells) != 1 {
			return fmt.Errorf("%s expands to %d cells; wfsim runs one (use wfbench -spec for grids)", specPath, len(cells))
		}
		*spec = cells[0]
		if e.Seeds > 1 {
			seeds = e.Seeds
		}
	}
	if emitSpec != "" {
		return writeSpec(*spec, seeds, emitSpec)
	}
	cfg := *spec
	if seeds > 1 {
		if gantt || csvPath != "" || eventsPath != "" {
			return fmt.Errorf("-gantt, -csv and -events trace a single execution; drop them or run without -seeds")
		}
		return runReplicated(cfg, store, seeds, parallel, jsonOut)
	}
	var res *harness.RunResult
	var err error
	if store != nil && jsonOut && eventsPath == "" {
		// The JSON row is pure metrics, so a cached single cell serves
		// it without simulating; trace modes below always simulate.
		var rs []*harness.RunResult
		rs, err = harness.Sweep([]harness.RunConfig{cfg},
			harness.SweepOptions{Parallel: 1, Cache: store})
		if err != nil {
			return err
		}
		res = rs[0]
	} else if eventsPath != "" {
		// Record into memory and write the file only once the run
		// succeeds, so a rejected run leaves no truncated log behind.
		var buf bytes.Buffer
		res, err = harness.RunRecorded(cfg, &buf)
		if err == nil {
			err = os.WriteFile(eventsPath, buf.Bytes(), 0o644)
		}
	} else {
		res, err = harness.Run(cfg)
	}
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res.JSONRow())
	}
	printResult(cfg, res)
	if gantt {
		tr := trace.New(res.Spans, res.Makespan)
		fmt.Println()
		fmt.Print(tr.Gantt(100))
		fmt.Println()
		fmt.Print(tr.Summary(res.Cluster.Workers[0].Type.Cores))
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		tr := trace.New(res.Spans, res.Makespan)
		if err := tr.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  trace CSV         %s (%d rows)\n", csvPath, len(res.Spans))
	}
	if eventsPath != "" {
		fmt.Printf("  event log         %s (check with: wfreplay verify %s)\n", eventsPath, eventsPath)
	}
	return nil
}

// setFlags returns the names (dash-prefixed) of the given flags that
// were explicitly set on the command line.
func setFlags(names []string) []string {
	watched := make(map[string]bool, len(names))
	for _, n := range names {
		watched[n] = true
	}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if watched[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// writeSpec serializes the configured run as an experiment spec — the
// round-trip counterpart of -spec, and the input of wfbench -spec.
func writeSpec(spec scenario.Spec, seeds int, path string) error {
	e := scenario.Experiment{Base: spec}
	if seeds > 1 {
		e.Seeds = seeds
	}
	if _, err := e.Cells(); err != nil {
		return err // reject unknown names before they land in a file
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
	if err := e.Write(out); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("wrote experiment spec to %s\n", path)
	}
	return nil
}

// workerLabel names the worker instance type of a run.
func workerLabel(cfg harness.RunConfig) string {
	if cfg.WorkerType != "" {
		return cfg.WorkerType
	}
	return "c1.xlarge"
}

// runReplicated sweeps the same cell across derived seeds concurrently
// and reports the spread — the confidence band the paper's single
// measurements lack.
func runReplicated(cfg harness.RunConfig, store *resultcache.Store, seeds, parallel int, jsonOut bool) error {
	reps, err := harness.SweepSeeds([]harness.RunConfig{cfg},
		harness.SweepOptions{Seeds: seeds, Parallel: parallel, Cache: store})
	if err != nil {
		return err
	}
	rep := reps[0]
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep.JSONRow())
	}
	fmt.Printf("%s on %s, %d x %s, %d seeds\n", cfg.App, cfg.Storage, cfg.Workers, workerLabel(cfg), seeds)
	fmt.Printf("  %-17s %.1f ± %.1f s  [%.1f, %.1f]\n", "makespan",
		rep.Makespan.Mean, rep.Makespan.Stddev, rep.Makespan.Min, rep.Makespan.Max)
	if cfg.FailureRate > 0 {
		fmt.Printf("  %-17s %.1f ± %.1f per run (rate %g)\n", "failures",
			rep.Failures.Mean, rep.Failures.Stddev, cfg.FailureRate)
	}
	if cfg.OutageRate > 0 {
		fmt.Printf("  %-17s %.1f ± %.1f per run (rate %g/node-h, %.0f ± %.0f s lost)\n", "outage kills",
			rep.OutageKills.Mean, rep.OutageKills.Stddev, cfg.OutageRate,
			rep.LostWork.Mean, rep.LostWork.Stddev)
	}
	fmt.Printf("  %-17s $%.2f ± $%.3f  [$%.2f, $%.2f]\n", "cost per-hour",
		rep.CostHour.Mean, rep.CostHour.Stddev, rep.CostHour.Min, rep.CostHour.Max)
	fmt.Printf("  %-17s $%.4f ± $%.5f\n", "cost per-second", rep.CostSecond.Mean, rep.CostSecond.Stddev)
	fmt.Printf("  %-17s %.1f%% ± %.2f%%\n", "utilization", rep.Utilization.Mean*100, rep.Utilization.Stddev*100)
	return nil
}

func printResult(cfg harness.RunConfig, res *harness.RunResult) {
	hour, sec := res.CostHour, res.CostSecond
	st := res.Stats
	fmt.Printf("%s on %s, %d x %s", cfg.App, cfg.Storage, cfg.Workers, workerLabel(cfg))
	if extra := len(res.Cluster.Extra); extra > 0 {
		fmt.Printf(" + %d service node(s)", extra)
	}
	fmt.Println()
	fmt.Printf("  tasks             %d\n", res.Completed())
	if res.Failures > 0 {
		fmt.Printf("  failures          %d injected, %d retries (rate %g)\n",
			res.Failures, res.Retries, cfg.FailureRate)
	}
	if res.Outages > 0 {
		fmt.Printf("  outages           %d node outages, %d attempts killed (rate %g/node-h)\n",
			res.Outages, res.OutageKills, cfg.OutageRate)
	}
	if res.LostWorkSeconds > 0 {
		fmt.Printf("  lost work         %s of slot time\n", units.Duration(res.LostWorkSeconds))
	}
	if res.Checkpoints > 0 {
		fmt.Printf("  checkpoints       %d written (%s staged, every %gs of compute)\n",
			res.Checkpoints, units.Bytes(res.CheckpointBytes), cfg.CheckpointInterval)
	}
	fmt.Printf("  provisioning      %s (excluded from makespan)\n", units.Duration(res.ProvisionTime))
	fmt.Printf("  makespan          %s (%.0f s)\n", units.Duration(res.Makespan), res.Makespan)
	fmt.Printf("  utilization       %.0f%%\n", res.Utilization*100)
	fmt.Printf("  cost per-hour     %s  (%.1f node-hours)\n", units.USD(hour.Total()), hour.NodeHours)
	fmt.Printf("  cost per-second   %s\n", units.USD(sec.Total()))
	fmt.Printf("  network traffic   %s\n", units.Bytes(st.NetworkBytes))
	if st.Gets+st.Puts > 0 {
		fmt.Printf("  S3 requests       %d GET, %d PUT (%s fees)\n",
			st.Gets, st.Puts, units.USD(hour.RequestCost))
	}
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Printf("  client cache      %d hits / %d misses\n", st.CacheHits, st.CacheMisses)
	}
}
