package harness

import (
	"slices"
	"strings"
	"testing"
)

// TestScaleStudySmall runs a scaled-down scale study end to end: matrix
// construction, baseline pairing, speedup/efficiency math and the
// rendered table and figures.
func TestScaleStudySmall(t *testing.T) {
	t.Parallel()
	o := StudyOptions{
		Sizes:    []int{2, 4, 8},
		Apps:     []string{"montage"},
		Storages: []string{"gluster-nufa", "pvfs"},
		Build:    buildSmallApp,
	}
	cells, out, err := ScaleStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 * 2 * 3; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Rep.Makespan.Mean <= 0 {
			t.Errorf("cell %d (%s n=%d): non-positive makespan", i, c.Config.Storage, c.Config.Workers)
		}
		base := cells[i-i%3]
		if c.Baseline.Makespan.Mean != base.Rep.Makespan.Mean {
			t.Errorf("cell %d paired against the wrong baseline", i)
		}
		if c.Config.Workers == 2 && c.Speedup() != 1 {
			t.Errorf("baseline cell %d: speedup %g, want 1", i, c.Speedup())
		}
		// Parallel efficiency can exceed 1 only through measurement
		// artifacts the small instances don't have; a 4x larger cluster
		// must not be reported as super-linear.
		if eff := c.Efficiency(2); eff < 0 || eff > 1.5 {
			t.Errorf("cell %d: implausible efficiency %g", i, eff)
		}
	}
	for _, want := range []string{"Scale study", "Speedup", "Efficiency", "runtime vs cluster size", "cost vs cluster size", "baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered study missing %q", want)
		}
	}
}

// TestScaleStudyDeterministicAcrossParallelism pins the study's
// bit-identical-at-any-parallelism contract — the same guarantee the
// golden sweeps enforce, for the new matrix.
func TestScaleStudyDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	run := func(parallel int) string {
		_, out, err := ScaleStudy(StudyOptions{
			Sizes:    []int{2, 4},
			Apps:     []string{"montage"},
			Storages: []string{"gluster-nufa"},
			Build:    buildSmallApp,
			Sweep:    SweepOptions{Parallel: parallel, NoMemo: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("scale study diverged between -parallel 1 and 8:\n%s\nvs\n%s", a, b)
	}
}

// TestScaleStudyLeavesCallerSizes pins that the study sorts and
// deduplicates its own copy of the size ladder: the caller's slice is
// input, not scratch.
func TestScaleStudyLeavesCallerSizes(t *testing.T) {
	t.Parallel()
	sizes := []int{4, 2, 2}
	cells, _, err := ScaleStudy(StudyOptions{
		Sizes:    sizes,
		Apps:     []string{"montage"},
		Storages: []string{"gluster-nufa"},
		Build:    buildSmallApp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 2, 2}; !slices.Equal(sizes, want) {
		t.Errorf("caller's Sizes = %v after ScaleStudy, want %v untouched", sizes, want)
	}
	if len(cells) != 2 || cells[0].Config.Workers != 2 || cells[1].Config.Workers != 4 {
		t.Errorf("got %d cells, want the ladder 2, 4 in order", len(cells))
	}
}

// TestScaleAblationRegistered wires the study into the ablation table.
func TestScaleAblationRegistered(t *testing.T) {
	t.Parallel()
	found := false
	for _, name := range AblationNames() {
		if name == "scale" {
			found = true
		}
	}
	if !found {
		t.Fatal("ablation list missing \"scale\"")
	}
}
