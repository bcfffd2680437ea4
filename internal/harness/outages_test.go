package harness

import (
	"strings"
	"testing"

	"ec2wfsim/internal/wms"
)

// TestCellKeyOutageUniqueness pins the memoization contract for the
// outage/checkpoint fields: configurations that run differently must key
// differently, and fields wms ignores must normalize away.
func TestCellKeyOutageUniqueness(t *testing.T) {
	t.Parallel()
	base := RunConfig{App: "montage", Storage: "pvfs", Workers: 4}
	distinct := []RunConfig{
		base,
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{OutageRate: 0.5}},
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{OutageRate: 1}},
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{OutageRate: 1, OutageDuration: 300}},
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{OutageRate: 1, OutageSeed: 7}},
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{CheckpointInterval: 120}},
		{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{OutageRate: 1, CheckpointInterval: 120}},
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
	// Fields ignored at OutageRate 0 must hit the plain cell's cache.
	ignored := RunConfig{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{OutageDuration: 300, OutageSeed: 7}}
	if CellKey(ignored) != CellKey(base) {
		t.Errorf("duration/seed at rate 0 split the cache:\n%q\nvs\n%q", CellKey(ignored), CellKey(base))
	}
	// Explicit wms defaults must hit the default-valued cell's cache.
	explicit := RunConfig{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{OutageRate: 1, OutageDuration: 120, OutageSeed: 0xDEAD}}
	implicit := RunConfig{App: "montage", Storage: "pvfs", Workers: 4, Faults: wms.Faults{OutageRate: 1}}
	if CellKey(explicit) != CellKey(implicit) {
		t.Errorf("explicit outage defaults split the cache:\n%q\nvs\n%q", CellKey(explicit), CellKey(implicit))
	}
}

// TestSweepSeedsPairsOutageReplicates pins the paired-baseline design:
// CellSeed ignores the outage and checkpoint fields, so replicate r of
// an outage cell shares its jitter seeds with replicate r of the
// outage-free baseline.
func TestSweepSeedsPairsOutageReplicates(t *testing.T) {
	t.Parallel()
	baseline := RunConfig{App: "epigenome", Storage: "pvfs", Workers: 4}
	broken := baseline
	broken.OutageRate = 1
	broken.CheckpointInterval = 120
	for rep := 1; rep <= 3; rep++ {
		if CellSeed(baseline, rep) != CellSeed(broken, rep) {
			t.Errorf("replicate %d jitter seeds diverge between baseline and outage cell", rep)
		}
	}
	if CellSeed(broken, 1) == CellSeed(broken, 2) {
		t.Error("replicates share a seed")
	}
}

// TestOutageStudySmoke runs the full study pipeline on scaled-down
// instances at a brutal outage rate: outage cells must report kills and
// lost work, the checkpointed arm must report checkpoint bytes, and the
// rendering must include baseline rows and error bars.
func TestOutageStudySmoke(t *testing.T) {
	t.Parallel()
	cells, out, err := OutageStudy(OutageStudyOptions{
		Rates:              []float64{20},
		Duration:           60,
		CheckpointInterval: 15,
		Apps:               []string{"montage", "broadband"},
		Storages:           []string{"gluster-nufa", "s3"},
		Workers:            2,
		Build:              buildSmallApp,
		Sweep:              SweepOptions{Seeds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2*2 { // apps x storages x {ckpt off, on} x {0, 20}
		t.Fatalf("cells = %d, want 16", len(cells))
	}
	sawCkptBytes := false
	for _, c := range cells {
		if c.Config.OutageRate == 0 && !c.Checkpointed() {
			if k := c.Rep.OutageKills.Mean; k != 0 {
				t.Errorf("%s/%s baseline reports %.1f kills", c.Config.App, c.Config.Storage, k)
			}
			continue
		}
		if c.Config.OutageRate > 0 {
			if c.Rep.OutageKills.Mean <= 0 && c.Rep.Makespan.Mean <= c.Baseline.Makespan.Mean {
				t.Errorf("%s/%s at rate 20 shows neither kills nor inflation",
					c.Config.App, c.Config.Storage)
			}
			if c.MakespanInflation() <= 0 {
				t.Errorf("%s/%s at rate 20 shows no inflation (%.1f%%)",
					c.Config.App, c.Config.Storage, c.MakespanInflation()*100)
			}
		}
		if c.Checkpointed() && c.Rep.CheckpointBytes.Mean > 0 {
			sawCkptBytes = true
		}
	}
	if !sawCkptBytes {
		t.Error("no checkpointed cell reported checkpoint bytes")
	}
	for _, want := range []string{"baseline", "±", "overhead vs outage-free baseline", "Lost work"} {
		if !strings.Contains(out, want) {
			t.Errorf("study rendering missing %q:\n%s", want, out)
		}
	}
}

// TestOutageStudyDeterministic is the acceptance bar from the issue: the
// whole pipeline (sweep, pairing, rendering) must be byte-identical at
// -parallel 1 and -parallel 8.
func TestOutageStudyDeterministic(t *testing.T) {
	t.Parallel()
	render := func(parallel int) string {
		_, out, err := OutageStudy(OutageStudyOptions{
			Rates:              []float64{10},
			Duration:           60,
			CheckpointInterval: 20,
			Apps:               []string{"epigenome"},
			Storages:           []string{"gluster-nufa", "pvfs"},
			Workers:            2,
			Build:              buildSmallApp,
			Sweep:              SweepOptions{Seeds: 3, Parallel: parallel, NoMemo: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, concurrent := render(1), render(8)
	if serial != concurrent {
		t.Errorf("outage study differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", serial, concurrent)
	}
}

// TestOutageStudyDefaults pins the zero-value study configuration.
func TestOutageStudyDefaults(t *testing.T) {
	t.Parallel()
	o := OutageStudyOptions{}
	o.normalize()
	if len(o.Rates) != len(OutageRates()) {
		t.Errorf("zero-value Rates = %v, want the canonical ladder %v", o.Rates, OutageRates())
	}
	if len(o.Apps) != 3 || len(o.Storages) != len(OutageStudyStorages()) {
		t.Errorf("zero-value matrix = %v x %v", o.Apps, o.Storages)
	}
	if o.Workers != DefaultOutageStudyWorkers {
		t.Errorf("zero-value Workers = %d", o.Workers)
	}
	if o.Duration != DefaultOutageStudyDuration || o.CheckpointInterval != DefaultOutageStudyCheckpoint {
		t.Errorf("zero-value duration/interval = %g/%g", o.Duration, o.CheckpointInterval)
	}
}
