package harness

import (
	"slices"
	"strings"
	"testing"
)

func TestTableIOutput(t *testing.T) {
	t.Parallel()
	tb, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{
		"Montage", "High", "Low",
		"Broadband", "Medium",
		"Epigenome",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestDiskBenchTable(t *testing.T) {
	t.Parallel()
	out := DiskBench().String()
	for _, want := range []string{"20.0 MB/s", "80.0 MB/s", "375.0 MB/s", "41m40"} {
		if !strings.Contains(out, want) {
			t.Errorf("disk table missing %q:\n%s", want, out)
		}
	}
}

func TestRuntimeFigureValidation(t *testing.T) {
	t.Parallel()
	// Runtime figures are 2-4; no other number names a grid.
	for _, fig := range []int{1, 8} {
		if _, _, err := GridFigures(fig, SweepOptions{}); err == nil {
			t.Errorf("GridFigures(%d) should fail", fig)
		}
	}
}

func TestCostFigureValidation(t *testing.T) {
	t.Parallel()
	// Cost figures 5-7 are the companions of runtime figures 2-4, rendered
	// from the same sweep; they are not grid figures of their own.
	for _, fig := range []int{5, 6, 7} {
		if _, _, err := GridFigures(fig, SweepOptions{}); err == nil {
			t.Errorf("GridFigures(%d) should fail (cost figure)", fig)
		}
	}
}

func TestRuntimeAndCostFiguresRender(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale grids")
	}
	out, costOut, err := GridFigures(3, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 3", "Epigenome", "local n=1", "s3 n=8", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 3 missing %q:\n%s", want, out)
		}
	}
	for _, want := range []string{"Fig. 6 (top)", "Fig. 6 (bottom)", "per-hour", "per-second"} {
		if !strings.Contains(costOut, want) {
			t.Errorf("figure 6 missing %q:\n%s", want, costOut)
		}
	}
}

// TestAblationRegistry pins the experiments table: the order wfbench
// prints the experiments in, and which of them are studies (wfbench's
// -seeds message names them).
func TestAblationRegistry(t *testing.T) {
	t.Parallel()
	if _, _, err := AblationSweep("bogus", StudyOptions{}); err == nil {
		t.Error("unknown ablation should fail")
	}
	want := []string{"xtreemfs", "s3cache", "locality", "nfssync", "nfsserver", "diskinit", "workertype", "failures", "outages", "scale", "scale1000"}
	if got := AblationNames(); !slices.Equal(got, want) {
		t.Errorf("AblationNames = %v, want %v", got, want)
	}
	if got, want := StudyNames(), []string{"failures", "outages", "scale", "scale1000"}; !slices.Equal(got, want) {
		t.Errorf("StudyNames = %v, want %v", got, want)
	}
}

func TestNFSSyncAblation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	results, out, err := AblationSweep("nfssync", StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	async, sync := results[0].Result, results[1].Result
	if async.Makespan >= sync.Makespan {
		t.Errorf("async NFS (%.0f s) not faster than sync (%.0f s) for write-heavy Montage",
			async.Makespan, sync.Makespan)
	}
	if !strings.Contains(out, "nfs-sync") {
		t.Error("rendered ablation missing labels")
	}
}

func TestLocalityAblationImproves(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	results, _, err := AblationSweep("locality", StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blind, aware := results[0].Result, results[1].Result
	if aware.Stats.NetworkBytes >= blind.Stats.NetworkBytes {
		t.Errorf("data-aware scheduler moved %.2e bytes, blind moved %.2e; expected a cut",
			aware.Stats.NetworkBytes, blind.Stats.NetworkBytes)
	}
}

func TestDiskInitAblationNotWorthIt(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	results, _, err := AblationSweep("diskinit", StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain, inited := results[0].Result, results[1].Result
	// The paper's §III.C argument: with initialization time charged, the
	// single-workflow case does not come out ahead.
	if inited.Makespan < plain.Makespan {
		t.Errorf("zero-init total %.0f s beat uninitialized %.0f s; the paper's economics argument broke",
			inited.Makespan, plain.Makespan)
	}
}

func TestFindHelper(t *testing.T) {
	t.Parallel()
	cells := []Cell{{System: "s3", Workers: 2}, {System: "nfs", Workers: 4}}
	if Find(cells, "nfs", 4) == nil {
		t.Error("Find missed an existing cell")
	}
	if Find(cells, "nfs", 8) != nil {
		t.Error("Find invented a cell")
	}
}

// "In our previous work we found that the c1.xlarge type delivers the
// best overall performance for the applications considered here" (§III.B):
// at an equal hourly budget, c1.xlarge workers beat the alternatives for
// every application.
func TestWorkerTypeAblationC1XLargeBest(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	results, _, err := AblationSweep("workertype", StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Results come in groups of 3 per application, c1.xlarge first.
	for i := 0; i+2 < len(results); i += 3 {
		c1 := results[i].Result.Makespan
		for _, alt := range results[i+1 : i+3] {
			if c1 >= alt.Result.Makespan {
				t.Errorf("%s: c1.xlarge (%.0f s) not faster than %s (%.0f s)",
					results[i].Label, c1, alt.Label, alt.Result.Makespan)
			}
		}
	}
}
