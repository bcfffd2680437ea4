// Command bench is the repository benchmark. Each workload is a closed
// loop over one fixed batch of cells, built to load a different layer of
// the simulator. A run times repetitions of the workload with tracing off,
// each in a fresh process that first sets the workload up, and checks
// every output. With -trace 1 it adds one repetition under a CPU profile,
// split by layer, plus probes that time each layer's exported entry points
// from outside.
//
// Run it from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//
// With no -workload it runs every workload in turn.
// Every metric is printed by name with its unit; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics, which holds the end-to-end metrics with -trace 0 and the
// per-layer metrics with -trace 1. Results, spans and the CPU profile are
// written under -out.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"ec2wfsim/internal/units"
)

// minReps is the least number of timed repetitions in a run, however
// short -seconds is, so that wall_s is a median.
const minReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	rep      string // non-empty in a repetition process: its mode
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric keeps metrics in report order.
type namedMetric struct {
	Name string `json:"name"`
	metric
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

// result is everything one workload run measured; it is written to
// result.json in the run's output directory.
type result struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Host      host          `json:"host"`
	Wall      []float64     `json:"wall_s_samples"`
	WallQ1    float64       `json:"wall_s_q1"`
	WallQ3    float64       `json:"wall_s_q3"`
	PeakRSS   []float64     `json:"peak_rss_mb_samples"`
	Setup     []float64     `json:"setup_s_samples"`
	Digest    string        `json:"digest"`
	EndToEnd  []namedMetric `json:"end_to_end"`
	PerLayer  []namedMetric `json:"per_layer,omitempty"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Notes     []string      `json:"notes,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var opt options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: paper-grid, striped-128, seed-extend or record-replay; empty runs every workload in turn")
	fs.Uint64Var(&opt.seed, "seed", 0, "workload seed; 0 keeps the paper's defaults, any other value sets Seed and AppSeed on every generated cell")
	fs.Float64Var(&opt.seconds, "seconds", 15, fmt.Sprintf("timed repetitions continue until they add up to this many seconds (at least %d repetitions)", minReps))
	fs.IntVar(&opt.trace, "trace", 1, "1 adds a traced repetition and the layer probes and puts the per-layer metrics in the result line; 0 puts the end-to-end metrics there")
	fs.StringVar(&opt.out, "out", "", "directory for results, spans and CPU profiles (default .bench_build/out under the repository root)")
	fs.StringVar(&opt.rep, "rep", "", "run one repetition in this process, in mode rep, check or traced, and print its result; runs start these processes themselves")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || opt.seconds <= 0 || (opt.trace != 0 && opt.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload NAME] [-seed N] [-seconds S>0] [-trace 0|1] [-out DIR]")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if opt.out == "" {
		opt.out = filepath.Join(root, ".bench_build", "out")
	}
	specs := workloadSpecs
	if opt.workload != "" {
		spec, ok := lookupWorkload(opt.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", opt.workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	if opt.rep != "" {
		if len(specs) != 1 {
			fmt.Fprintln(os.Stderr, "bench: -rep needs -workload")
			return 2
		}
		return repProcess(specs[0], opt, root)
	}
	// With every workload, metric names in the result line carry the
	// workload as a prefix.
	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, spec := range specs {
		res, err := measure(spec, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
			return 1
		}
		printResult(os.Stdout, res)
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		ms := res.EndToEnd
		if opt.trace == 1 {
			ms = res.PerLayer
		}
		for _, m := range ms {
			name := m.Name
			if len(specs) > 1 {
				name = spec.name + "/" + name
			}
			line.Metrics[name] = m.metric
		}
	}
	return printLine(line)
}

// repoRoot finds the repository root at or above the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenPath)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s at or above the working directory; run from the repository", goldenPath)
		}
		dir = parent
	}
}

// measure runs one workload. Every repetition runs in a fresh process
// that sets the workload up and runs it once, as a CLI invocation would:
// set-up time and peak RSS are sampled once per repetition, and no
// repetition inherits another's heap. The first repetition also does the
// check-only work, and with -trace 1 one more process runs the traced
// repetition and the probes.
func measure(spec workloadSpec, opt options) (*result, error) {
	dir := filepath.Join(opt.out, spec.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: spec.name, Seed: opt.seed, Host: hostInfo()}
	// add holds every repetition to the first one's digest.
	add := func(r *repResult) {
		switch {
		case res.Digest == "":
			res.Digest = r.Digest
		case r.Digest != res.Digest:
			res.Failed += r.Ops
			res.Notes = append(res.Notes, fmt.Sprintf("repetition digest %s differs from the first repetition's %s", r.Digest, res.Digest))
		}
		res.Attempted += r.Ops
		res.Failed += r.Failed
		res.Notes = append(res.Notes, r.Notes...)
	}
	var allocMB, cycles []float64
	for elapsed := 0.0; len(res.Wall) < minReps || elapsed < opt.seconds; {
		mode := modeRep
		if len(res.Wall) == 0 {
			mode = modeCheck
		}
		r, err := startRep(spec, opt, mode)
		if err != nil {
			return nil, err
		}
		add(r)
		res.Wall = append(res.Wall, r.WallS)
		res.PeakRSS = append(res.PeakRSS, r.PeakRSS)
		res.Setup = append(res.Setup, r.SetupS)
		allocMB = append(allocMB, r.AllocMB)
		cycles = append(cycles, r.GCCycles)
		elapsed += r.WallS
	}
	res.WallQ1, res.WallQ3 = quartiles(res.Wall)
	res.EndToEnd = []namedMetric{
		{"wall_s", metric{median(res.Wall), "s"}},
		{"peak_rss_mb", metric{median(res.PeakRSS), "MB"}},
		{"setup_s", metric{median(res.Setup), "s"}},
	}
	if opt.trace == 1 {
		r, err := startRep(spec, opt, modeTraced)
		if err != nil {
			return nil, err
		}
		add(r)
		res.PerLayer = append(r.PerLayer,
			namedMetric{"gc.alloc_mb", metric{median(allocMB), "MB"}},
			namedMetric{"gc.cycles", metric{median(cycles), "count"}},
			namedMetric{"trace.overhead", metric{r.WallS/median(res.Wall) - 1, "ratio"}},
		)
	}
	res.Correct = res.Failed == 0
	if err := writeJSON(filepath.Join(dir, "result.json"), res); err != nil {
		return nil, err
	}
	return res, nil
}

// startRep runs one repetition process and waits for its result, the
// only line it prints.
func startRep(spec workloadSpec, opt options, mode string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-rep", mode, "-workload", spec.name, "-seed", strconv.FormatUint(opt.seed, 10), "-out", opt.out)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", mode, err)
	}
	var r repResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s repetition output: %w", mode, err)
	}
	return &r, nil
}

// printLine prints v as one line of JSON.
func printLine(v any) int {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", data)
	return 0
}

func printResult(w io.Writer, res *result) {
	h := res.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU)
	fmt.Fprintf(w, "workload %s, seed %d: %d timed repetitions, digest %s\n", res.Workload, res.Seed, len(res.Wall), res.Digest)
	fmt.Fprintf(w, "ops: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	for _, m := range res.EndToEnd {
		fmt.Fprintf(w, "%-30s %14.6g %s", m.Name, m.Value, m.Unit)
		if m.Name == "wall_s" {
			fmt.Fprintf(w, "  (q1 %.6g, q3 %.6g, n %d)", res.WallQ1, res.WallQ3, len(res.Wall))
		}
		fmt.Fprintln(w)
	}
	for _, m := range res.PerLayer {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB reads this process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / units.MB, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
