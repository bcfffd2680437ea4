package harness

import (
	"testing"

	"ec2wfsim/internal/units"
)

// TestCalibrationGrid prints the full paper-scale grid (makespans and
// costs) so calibration drift is visible in -v output. It is the slowest
// test in the repository; skip it in -short runs.
func TestCalibrationGrid(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale grid is slow; run without -short")
	}
	for _, app := range []string{"montage", "epigenome", "broadband"} {
		cells, err := Grid(app)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("== %s ==", app)
		for _, c := range cells {
			r := c.Result
			t.Logf("%-14s n=%d  makespan=%9.0fs (%s)  $/hr=%.2f $/sec=%.3f  util=%.2f gets=%d puts=%d net=%s",
				c.System, c.Workers, r.Makespan, units.Duration(r.Makespan),
				r.CostHour.Total(), r.CostSecond.Total(), r.Utilization,
				r.Stats.Gets, r.Stats.Puts, units.Bytes(r.Stats.NetworkBytes))
		}
	}
}
