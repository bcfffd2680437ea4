package harness

import (
	"strings"
	"testing"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

// smallApp builds a scaled-down application instance, keeping the
// failure tests fast enough for -short CI runs.
func smallApp(t testing.TB, app string) *workflow.Workflow {
	t.Helper()
	w, err := buildSmallApp(app)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func buildSmallApp(app string) (*workflow.Workflow, error) {
	switch app {
	case "montage":
		return apps.Montage(apps.MontageConfig{Images: 24})
	case "broadband":
		return apps.Broadband(apps.BroadbandConfig{Sources: 2, Sites: 2})
	case "epigenome":
		return apps.Epigenome(apps.EpigenomeConfig{Lanes: 1, ChunksPerLane: 6})
	}
	return apps.Montage(apps.MontageConfig{Images: 24})
}

// TestCellKeyFailureUniqueness pins the memoization contract for the new
// failure fields: configurations that run differently must key
// differently, and fields wms ignores must normalize away.
func TestCellKeyFailureUniqueness(t *testing.T) {
	t.Parallel()
	base := RunConfig{App: "montage", Storage: "pvfs", Workers: 4}
	distinct := []RunConfig{
		base,
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{FailureRate: 0.05}},
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{FailureRate: 0.1}},
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{FailureRate: 0.1, MaxRetries: 5}},
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{FailureRate: 0.1, FailureSeed: 7}},
	}
	seen := make(map[string]int)
	for i, cfg := range distinct {
		key := CellKey(cfg)
		if key == "" {
			t.Fatalf("config %d not memoizable: %+v", i, cfg)
		}
		if j, dup := seen[key]; dup {
			t.Errorf("configs %d and %d collide on key %q", i, j, key)
		}
		seen[key] = i
	}
	// Fields ignored at FailureRate 0 must hit the plain cell's cache.
	ignored := RunConfig{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{MaxRetries: 5, FailureSeed: 7}}
	if CellKey(ignored) != CellKey(base) {
		t.Errorf("retries/seed at rate 0 split the cache:\n%q\nvs\n%q", CellKey(ignored), CellKey(base))
	}
	// Explicit DAGMan defaults must hit the default-valued cell's cache.
	explicit := RunConfig{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{FailureRate: 0.1, MaxRetries: 3}}
	implicit := RunConfig{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{FailureRate: 0.1}}
	if CellKey(explicit) != CellKey(implicit) {
		t.Errorf("explicit MaxRetries=3 split the cache:\n%q\nvs\n%q", CellKey(explicit), CellKey(implicit))
	}
}

// TestFailureReplayDeterministic asserts a fixed FailureSeed replays the
// exact same failure sequence through harness.Run.
func TestFailureReplayDeterministic(t *testing.T) {
	t.Parallel()
	run := func() *RunResult {
		r, err := Run(RunConfig{
			App: "montage", Storage: "gluster-nufa", Workers: 2,
			Workflow: smallApp(t, "montage"),
			Faults:   wms.Faults{FailureRate: 0.3, FailureSeed: 42},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Failures != b.Failures || a.Retries != b.Retries {
		t.Errorf("fixed FailureSeed did not replay: (%g, %d, %d) vs (%g, %d, %d)",
			a.Makespan, a.Failures, a.Retries, b.Makespan, b.Failures, b.Retries)
	}
	if a.Failures == 0 {
		t.Error("30% failure rate injected nothing")
	}
	// A different seed must produce a different failure pattern.
	c, err := Run(RunConfig{
		App: "montage", Storage: "gluster-nufa", Workers: 2,
		Workflow: smallApp(t, "montage"),
		Faults:   wms.Faults{FailureRate: 0.3, FailureSeed: 43},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan == a.Makespan && c.Failures == a.Failures {
		t.Error("changing FailureSeed changed nothing")
	}
}

// TestSweepSeedsPairsFailureReplicates pins the paired-baseline design:
// replicate r of a failure cell shares its provisioning/app seeds with
// replicate r of the failure-free baseline, while the failure seed
// itself varies per replicate.
func TestSweepSeedsPairsFailureReplicates(t *testing.T) {
	t.Parallel()
	baseline := RunConfig{App: "epigenome", Storage: "pvfs", Workers: 4}
	flaky := baseline
	flaky.FailureRate = 0.2
	for rep := 1; rep <= 3; rep++ {
		if CellSeed(baseline, rep) != CellSeed(flaky, rep) {
			t.Errorf("replicate %d jitter seeds diverge between baseline and failure cell", rep)
		}
	}
	if CellSeed(flaky, 1) == CellSeed(flaky, 2) {
		t.Error("replicates share a seed")
	}
}

// TestFailureStudySmoke runs the full study pipeline on scaled-down
// instances: failure cells must report injected failures, positive
// makespan inflation at a brutal rate, and a rendering with baseline
// rows and error bars.
func TestFailureStudySmoke(t *testing.T) {
	t.Parallel()
	cells, out, err := FailureStudy(StudyOptions{
		Faults:   wms.Faults{FailureRate: 0.3},
		Apps:     []string{"montage", "broadband"},
		Storages: []string{"gluster-nufa", "s3"},
		Workers:  2,
		Build:    buildSmallApp,
		Sweep:    SweepOptions{Seeds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2 { // apps x storages x {0, 0.3}
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	for _, c := range cells {
		if c.Config.FailureRate == 0 {
			if f := c.Rep.Failures.Mean; f != 0 {
				t.Errorf("%s/%s baseline reports %.1f failures", c.Config.App, c.Config.Storage, f)
			}
			continue
		}
		if c.Rep.Failures.Mean <= 0 {
			t.Errorf("%s/%s at rate 0.3 injected nothing", c.Config.App, c.Config.Storage)
		}
		if c.MakespanInflation() <= 0 {
			t.Errorf("%s/%s at rate 0.3 shows no inflation (%.1f%%)",
				c.Config.App, c.Config.Storage, c.MakespanInflation()*100)
		}
		// Paired per-replicate deltas: every replicate shares seeds with
		// its baseline, so at a brutal rate each pair is slower.
		if d := c.MakespanDelta(); d.N != 2 || d.Min <= 0 {
			t.Errorf("%s/%s paired delta %+v; want 2 positive pairs",
				c.Config.App, c.Config.Storage, d)
		}
	}
	for _, want := range []string{"baseline", "±", "overhead vs failure-free baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("study rendering missing %q:\n%s", want, out)
		}
	}
}

// TestFailureStudyDeterministic is the study-level determinism bar: the
// whole pipeline (sweep, pairing, rendering) must be byte-identical at
// any parallelism.
func TestFailureStudyDeterministic(t *testing.T) {
	t.Parallel()
	render := func(parallel int) string {
		_, out, err := FailureStudy(StudyOptions{
			Faults:   wms.Faults{FailureRate: 0.2},
			Apps:     []string{"epigenome"},
			Storages: []string{"gluster-nufa", "pvfs"},
			Workers:  2,
			Build:    buildSmallApp,
			Sweep:    SweepOptions{Seeds: 3, Parallel: parallel, NoMemo: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, concurrent := render(1), render(8)
	if serial != concurrent {
		t.Errorf("failure study differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", serial, concurrent)
	}
}

// oneTaskApp builds a one-task workflow, so a test runs a whole study
// matrix in milliseconds.
func oneTaskApp(string) (*workflow.Workflow, error) {
	w := workflow.New("one-task")
	w.AddTask(&workflow.Task{ID: "t", Runtime: 1, Outputs: []*workflow.File{w.File("out", 1e6)}})
	return w, w.Finalize()
}

// checkStudyMatrix checks that cells cross the paper's applications with
// storages, arms cells per (app, storage) block, in that order.
func checkStudyMatrix(t *testing.T, cells []PairedCell, storages []string, arms int) {
	t.Helper()
	if want := len(apps.Names()) * len(storages) * arms; len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	for i, c := range cells {
		block := i / arms
		if app, sys := apps.Names()[block/len(storages)], storages[block%len(storages)]; c.Config.App != app || c.Config.Storage != sys {
			t.Errorf("cell %d runs %s on %s, want %s on %s", i, c.Config.App, c.Config.Storage, app, sys)
		}
	}
}

// TestFailureStudyDefaults pins the zero-value study configuration: the
// canonical rate ladder (a regression — an empty ladder once ran the
// baseline alone), the paper's three applications, the studied storage
// systems and 4 workers; and the one-rate ladder {0, r} that a non-zero
// FailureRate runs.
func TestFailureStudyDefaults(t *testing.T) {
	t.Parallel()
	cells, _, err := FailureStudy(StudyOptions{Build: oneTaskApp})
	if err != nil {
		t.Fatal(err)
	}
	rates := FailureRates()
	checkStudyMatrix(t, cells, FaultStudyStorages(), len(rates))
	for i, c := range cells {
		if want := rates[i%len(rates)]; c.Config.FailureRate != want || c.Config.Workers != 4 {
			t.Errorf("cell %d runs rate %g on %d workers, want rate %g on 4", i, c.Config.FailureRate, c.Config.Workers, want)
		}
	}
	cells, _, err = FailureStudy(StudyOptions{
		Faults: wms.Faults{FailureRate: 0.3},
		Apps:   []string{"epigenome"}, Storages: []string{"s3"}, Build: oneTaskApp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Config.FailureRate != 0 || cells[1].Config.FailureRate != 0.3 {
		t.Errorf("FailureRate 0.3 ran %d cells, want the ladder {0, 0.3}", len(cells))
	}
}
