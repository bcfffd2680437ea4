package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
)

// The golden file pins the simulation's paper numbers: Table I, all
// three application grids (Figures 2-7 data), the nfssync ablation, a
// failure-ablation row and an outage-ablation row. Any refactor that
// perturbs a makespan or cost — including changes to the sweep engine,
// the flow network or the RNG — fails here before it can silently drift
// the reproduction away from the paper.
//
// Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

type goldenCell struct {
	Label      string  `json:"label"`
	Makespan   float64 `json:"makespan_s"`
	CostHour   float64 `json:"cost_per_hour"`
	CostSecond float64 `json:"cost_per_second"`
}

// goldenFailureCell extends a golden cell with the failure counters a
// failure-ablation row pins.
type goldenFailureCell struct {
	Label      string  `json:"label"`
	Makespan   float64 `json:"makespan_s"`
	CostSecond float64 `json:"cost_per_second"`
	Failures   int64   `json:"failures"`
	Retries    int64   `json:"retries"`
}

// goldenOutageCell pins the counters an outage-ablation row adds on top
// of the timing numbers.
type goldenOutageCell struct {
	Label       string  `json:"label"`
	Makespan    float64 `json:"makespan_s"`
	CostSecond  float64 `json:"cost_per_second"`
	Outages     int64   `json:"outages"`
	OutageKills int64   `json:"outage_kills"`
	Checkpoints int64   `json:"checkpoints"`
	LostWork    float64 `json:"lost_work_s"`
}

type goldenData struct {
	TableI        []string            `json:"table1_rows"`
	MontageGrid   []goldenCell        `json:"montage_grid"`
	EpigenomeGrid []goldenCell        `json:"epigenome_grid"`
	BroadbandGrid []goldenCell        `json:"broadband_grid"`
	NFSSync       []goldenCell        `json:"nfssync_ablation"`
	Failure       []goldenFailureCell `json:"failure_ablation"`
	Outage        []goldenOutageCell  `json:"outage_ablation"`
}

func collectGolden(t *testing.T) goldenData {
	t.Helper()
	var g goldenData
	tb, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split([]byte(tb.String()), []byte("\n")) {
		if len(line) > 0 {
			g.TableI = append(g.TableI, string(line))
		}
	}
	grid := func(app string) []goldenCell {
		cells, err := Grid(app)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]goldenCell, 0, len(cells))
		for _, c := range cells {
			out = append(out, goldenCell{
				Label:      fmt.Sprintf("%s/%d", c.System, c.Workers),
				Makespan:   c.Result.Makespan,
				CostHour:   c.Result.CostHour.Total(),
				CostSecond: c.Result.CostSecond.Total(),
			})
		}
		return out
	}
	g.MontageGrid = grid("montage")
	g.EpigenomeGrid = grid("epigenome")
	g.BroadbandGrid = grid("broadband")
	results, _, err := AblationSweep("nfssync", StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range results {
		g.NFSSync = append(g.NFSSync, goldenCell{
			Label:      ar.Label,
			Makespan:   ar.Result.Makespan,
			CostHour:   ar.Result.CostHour.Total(),
			CostSecond: ar.Result.CostSecond.Total(),
		})
	}
	// One failure-ablation row (baseline + injected) pins the failure
	// plumbing: rate, default retries and the fixed failure seed all feed
	// the simulation through RunConfig, so any drift in the injection
	// path or its CellKey handling fails here.
	for _, rate := range []float64{0, 0.1} {
		r, err := RunCached(RunConfig{
			App: "montage", Storage: "pvfs",
			Workers: DefaultStudyWorkers, Faults: wms.Faults{FailureRate: rate},
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Failure = append(g.Failure, goldenFailureCell{
			Label:      fmt.Sprintf("montage/pvfs r=%g", rate),
			Makespan:   r.Makespan,
			CostSecond: r.CostSecond.Total(),
			Failures:   r.Failures,
			Retries:    r.Retries,
		})
	}
	// One outage-ablation pair (baseline + outages with checkpointing)
	// pins the correlated-failure plumbing: the outage schedule, the
	// kill/restart path and the checkpoint traffic all feed the
	// simulation through RunConfig, so any drift in the outage subsystem
	// or its CellKey handling fails here.
	for _, rate := range []float64{0, 1} {
		r, err := RunCached(RunConfig{
			App: "montage", Storage: "pvfs",
			Workers: DefaultStudyWorkers,
			Faults:  wms.Faults{OutageRate: rate, CheckpointInterval: DefaultOutageStudyCheckpoint},
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Outage = append(g.Outage, goldenOutageCell{
			Label:       fmt.Sprintf("montage/pvfs out=%g +ckpt", rate),
			Makespan:    r.Makespan,
			CostSecond:  r.CostSecond.Total(),
			Outages:     r.Outages,
			OutageKills: r.OutageKills,
			Checkpoints: r.Checkpoints,
			LostWork:    r.LostWorkSeconds,
		})
	}
	return g
}

// TestGoldenPaperNumbers compares today's simulation against the pinned
// values exactly: the simulator is deterministic, so float64 equality
// through the JSON round-trip is the correct bar (encoding/json emits
// the shortest representation that round-trips).
func TestGoldenPaperNumbers(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale grid")
	}
	got := collectGolden(t)
	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	var want goldenData
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for i, row := range want.TableI {
		if i >= len(got.TableI) || got.TableI[i] != row {
			t.Errorf("Table I row %d drifted:\n got: %q\nwant: %q", i, at(got.TableI, i), row)
		}
	}
	compareCells(t, "montage grid", got.MontageGrid, want.MontageGrid)
	compareCells(t, "epigenome grid", got.EpigenomeGrid, want.EpigenomeGrid)
	compareCells(t, "broadband grid", got.BroadbandGrid, want.BroadbandGrid)
	compareCells(t, "nfssync ablation", got.NFSSync, want.NFSSync)
	if len(got.Failure) != len(want.Failure) {
		t.Errorf("failure ablation: %d cells, golden has %d", len(got.Failure), len(want.Failure))
	} else {
		for i := range want.Failure {
			if got.Failure[i] != want.Failure[i] {
				t.Errorf("failure cell %s drifted:\n got: %+v\nwant: %+v",
					want.Failure[i].Label, got.Failure[i], want.Failure[i])
			}
		}
	}
	if len(got.Outage) != len(want.Outage) {
		t.Errorf("outage ablation: %d cells, golden has %d", len(got.Outage), len(want.Outage))
	} else {
		for i := range want.Outage {
			if got.Outage[i] != want.Outage[i] {
				t.Errorf("outage cell %s drifted:\n got: %+v\nwant: %+v",
					want.Outage[i].Label, got.Outage[i], want.Outage[i])
			}
		}
	}
}

func at(rows []string, i int) string {
	if i < len(rows) {
		return rows[i]
	}
	return "<missing>"
}

func compareCells(t *testing.T, what string, got, want []goldenCell) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d cells, golden has %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s cell %s drifted:\n got: %+v\nwant: %+v", what, want[i].Label, got[i], want[i])
		}
	}
}

// TestGoldenStriped pins the two PVFS cells at 128 workers, where every
// read stripes over all 128 servers. Nothing in golden.json runs above 8
// workers, and these are the cells whose flow graphs are largest, so a
// solver change that drifts only under wide fan-out fails here.
func TestGoldenStriped(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("128-worker cells")
	}
	var got []goldenCell
	for _, app := range []string{"epigenome", "broadband"} {
		cfg := RunConfig{App: app, Storage: "pvfs", Workers: 128}
		r, err := RunCached(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenCell{
			Label:      fmt.Sprintf("%s/%s/%d", cfg.App, cfg.Storage, cfg.Workers),
			Makespan:   r.Makespan,
			CostHour:   r.CostHour.Total(),
			CostSecond: r.CostSecond.Total(),
		})
	}
	path := filepath.Join("testdata", "golden_striped.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	compareCells(t, "striped pvfs/128", got, want)
}

// goldenFaultCell pins a fault-path cell's timing, fault counters and
// storage counters.
type goldenFaultCell struct {
	Label    string  `json:"label"`
	Makespan float64 `json:"makespan_s"`
	wms.FaultCounts
	Stats storage.Stats `json:"stats"`
}

// TestGoldenFaultCells pins the backends that keep per-file placement
// tables (GlusterFS NUFA, PVFS, S3) under injected failures, outages and
// checkpoints. Checkpoint files are written only on these paths, so a
// change to how a backend tracks them fails here; the NFS fault path is
// pinned by the golden event log. The knobs are that log's.
//
// Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGoldenFaultCells -update-golden
func TestGoldenFaultCells(t *testing.T) {
	t.Parallel()
	w, err := apps.Montage(apps.MontageConfig{Images: 6})
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenFaultCell
	for _, sys := range []string{"gluster-nufa", "pvfs", "s3"} {
		r, err := Run(RunConfig{
			App: "montage", Storage: sys, Workers: 2, Workflow: w,
			Faults: wms.Faults{FailureRate: 0.2, OutageRate: 30, OutageDuration: 5, CheckpointInterval: 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Failures == 0 || r.OutageKills == 0 || r.Checkpoints == 0 {
			t.Fatalf("%s: failures/outage kills/checkpoints = %d/%d/%d: the cell misses a fault path",
				sys, r.Failures, r.OutageKills, r.Checkpoints)
		}
		got = append(got, goldenFaultCell{
			Label:       "montage-6/" + sys + "/2",
			Makespan:    r.Makespan,
			FaultCounts: r.FaultCounts,
			Stats:       r.Stats,
		})
	}
	path := filepath.Join("testdata", "golden_faults.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	var want []goldenFaultCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fault cells: %d cells, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault cell %s drifted:\n got: %+v\nwant: %+v", want[i].Label, got[i], want[i])
		}
	}
}

// TestGoldenSweepDeterminism asserts the sweep engine's core promise:
// the same matrix at -parallel 1 and -parallel 8 yields byte-identical
// results. Fresh caches on both sides so every cell actually runs twice.
func TestGoldenSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale grid")
	}
	// The subtest is named after the flow solver's version label, v1, so
	// the test ID is stable across solver changes.
	t.Run("flow-v1", func(t *testing.T) {
		t.Parallel()
		cfgs := GridConfigs("epigenome")
		run := func(parallel int) []byte {
			results, err := Sweep(cfgs, SweepOptions{Parallel: parallel, NoMemo: true})
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]ResultJSON, len(results))
			for i, r := range results {
				rows[i] = r.JSONRow()
			}
			data, err := json.Marshal(rows)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		serial := run(1)
		concurrent := run(8)
		if !bytes.Equal(serial, concurrent) {
			t.Errorf("epigenome grid differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", serial, concurrent)
		}
	})
}

// TestGoldenMultiSeedDeterminism extends the determinism bar to
// replicated sweeps: per-cell seed derivation and aggregation must not
// depend on scheduling either.
func TestGoldenMultiSeedDeterminism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	cfgs := []RunConfig{
		{App: "broadband", Storage: "gluster-nufa", Workers: 4},
		{App: "epigenome", Storage: "nfs", Workers: 2},
	}
	run := func(parallel int) []byte {
		reps, err := SweepSeeds(cfgs, SweepOptions{Parallel: parallel, Seeds: 3, NoMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]ReplicatedJSON, len(reps))
		for i, r := range reps {
			rows[i] = r.JSONRow()
		}
		data, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := run(1)
	concurrent := run(8)
	if !bytes.Equal(serial, concurrent) {
		t.Errorf("multi-seed sweep differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", serial, concurrent)
	}
	// Replicate 0 must reproduce the paper's single-seed numbers.
	reps, err := SweepSeeds(cfgs, SweepOptions{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		paper, err := RunCached(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs[0].Makespan != paper.Makespan {
			t.Errorf("%s: replicate 0 makespan %.6f != single-seed %.6f",
				cfgs[i].Storage, rep.Runs[0].Makespan, paper.Makespan)
		}
		if rep.Makespan.N != 3 || rep.Makespan.Min > rep.Makespan.Mean || rep.Makespan.Mean > rep.Makespan.Max {
			t.Errorf("%s: inconsistent summary %+v", cfgs[i].Storage, rep.Makespan)
		}
		// Replicates vary task-runtime jitter, so the spread is real.
		if rep.Makespan.Max <= rep.Makespan.Min {
			t.Errorf("%s: replicates produced zero makespan spread: %+v", cfgs[i].Storage, rep.Makespan)
		}
	}
}
