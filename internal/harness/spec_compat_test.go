package harness

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/wms"
)

// The scenario redesign replaced the hand-maintained CellKey formatting
// and SweepSeeds salting with per-option-group declarations. The memo
// cache, the golden file and the paired-baseline seeding all depend on
// those encodings staying bit-identical, so this file keeps the
// pre-redesign implementations verbatim as oracles and checks the new
// path against them over the full permutation lattice of every field.

// oldCellKey is the pre-scenario CellKey, kept verbatim except that a
// derived replicate is recognized by its Replicate index.
func oldCellKey(cfg RunConfig) string {
	if cfg.Workflow != nil || cfg.Replicate > 0 {
		return ""
	}
	wt := cfg.WorkerType
	if wt == "" {
		wt = "c1.xlarge"
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	var retries int
	var failSeed uint64
	if cfg.FailureRate > 0 {
		retries = cfg.MaxRetries
		if retries == 0 {
			retries = wms.DefaultMaxRetries
		}
		failSeed = cfg.FailureSeed
		if failSeed == 0 {
			failSeed = wms.DefaultFailureSeed
		}
	}
	var outDur float64
	var outSeed uint64
	if cfg.OutageRate > 0 {
		outDur = cfg.OutageDuration
		if outDur == 0 {
			outDur = wms.DefaultOutageDuration
		}
		outSeed = cfg.OutageSeed
		if outSeed == 0 {
			outSeed = wms.DefaultOutageSeed
		}
	}
	return fmt.Sprintf("%s|%s|n=%d|%s|seed=%d|appseed=%d|aware=%t|init=%t:%g|fail=%g:%d:%d|out=%g:%g:%d|ckpt=%g",
		cfg.App, cfg.Storage, cfg.Workers, wt, seed, cfg.AppSeed, cfg.DataAware,
		cfg.InitializeDisks, cfg.InitializeBytes, cfg.FailureRate, retries, failSeed,
		cfg.OutageRate, outDur, outSeed, cfg.CheckpointInterval)
}

// oldCellSeed is the pre-scenario CellSeed, kept verbatim (salts
// inlined — they moved into the scenario package).
func oldCellSeed(cfg RunConfig, replicate int) uint64 {
	base := cfg.Seed
	if base == 0 {
		base = DefaultSeed
	}
	if replicate == 0 {
		return base
	}
	key := fmt.Sprintf("%s|%s|%d|%s|%t|%t", cfg.App, cfg.Storage, cfg.Workers,
		cfg.WorkerType, cfg.DataAware, cfg.InitializeDisks)
	r := rng.New((rng.HashString(key) ^ base) + uint64(replicate))
	s := r.Uint64()
	if s == 0 {
		s = 1
	}
	return s
}

// oldReseed is the pre-scenario SweepSeeds replicate salting, verbatim.
func oldReseed(c *RunConfig, s uint64) {
	const failureSeedSalt uint64 = 0xFA11AB1E
	const outageSeedSalt uint64 = 0x0D07A6E5
	c.Seed = s
	if c.Workflow == nil {
		c.AppSeed = s
	}
	if c.FailureRate > 0 {
		c.FailureSeed = s ^ failureSeedSalt
	}
	if c.OutageRate > 0 {
		c.OutageSeed = s ^ outageSeedSalt
	}
}

// compatConfigs enumerates the pre-redesign RunConfig permutation
// lattice: every field crossed over representative values, including
// the normalized defaults (0/""), their explicit spellings, and odd
// values.
func compatConfigs() []RunConfig {
	type failCase struct {
		rate float64
		retr int
		seed uint64
	}
	var (
		apps     = []string{"montage", "broadband", "epigenome"}
		storages = []string{"local", "nfs", "nfs-sync", "gluster-nufa", "gluster-dist", "pvfs", "s3", "s3-nocache", "xtreemfs", "nope"}
		workers  = []int{1, 2, 8, 64}
		wts      = []string{"", "c1.xlarge", "m1.large"}
		seeds    = []uint64{0, DefaultSeed, 7, 1<<63 + 5}
		appseeds = []uint64{0, 3}
		bools    = []bool{false, true}
		fails    = []failCase{{0, 0, 0}, {0, 5, 9}, {0.1, 0, 0}, {0.1, 5, 9}}
		outs     = []failCase{{0, 0, 0}, {0, 0, 11}, {1.5, 0, 0}, {1.5, 0, 11}}
		ckpts    = []float64{0, 60.5}
	)
	var cfgs []RunConfig
	for _, app := range apps {
		for _, sys := range storages {
			for _, n := range workers {
				for _, wt := range wts {
					for _, seed := range seeds {
						for _, appseed := range appseeds {
							for _, aware := range bools {
								for _, init := range bools {
									for _, fc := range fails {
										for _, oc := range outs {
											for _, ck := range ckpts {
												cfg := RunConfig{
													App: app, Storage: sys, Workers: n,
													WorkerType: wt, DataAware: aware,
													Seed: seed, AppSeed: appseed,
													InitializeDisks: init,
													Faults: wms.Faults{
														FailureRate: fc.rate, MaxRetries: fc.retr, FailureSeed: fc.seed,
														OutageRate: oc.rate, OutageSeed: oc.seed,
														CheckpointInterval: ck,
													},
												}
												if init {
													cfg.InitializeBytes = 50e9
												}
												if oc.rate > 0 {
													cfg.OutageDuration = 90
												}
												cfgs = append(cfgs, cfg)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cfgs
}

// TestCellKeyMatchesOracle proves the redesign's hard constraint: every
// pre-redesign configuration hashes to its old CellKey string, so
// memoization keys (and with them the golden file's cache behavior)
// are unchanged.
func TestCellKeyMatchesOracle(t *testing.T) {
	mismatches := 0
	for _, cfg := range compatConfigs() {
		if got, want := CellKey(cfg), oldCellKey(cfg); got != want {
			t.Errorf("CellKey(%+v):\n got %q\nwant %q", cfg, got, want)
			if mismatches++; mismatches > 5 {
				t.Fatal("too many mismatches")
			}
		}
	}
}

// TestCellSeedMatchesOracle pins replicate-seed derivation: paired
// baselines and multi-seed studies reproduce their pre-redesign seeds.
func TestCellSeedMatchesOracle(t *testing.T) {
	mismatches := 0
	for _, cfg := range compatConfigs() {
		for _, rep := range []int{0, 1, 2, 7} {
			if got, want := CellSeed(cfg, rep), oldCellSeed(cfg, rep); got != want {
				t.Errorf("CellSeed(%+v, %d) = %d, want %d", cfg, rep, got, want)
				if mismatches++; mismatches > 5 {
					t.Fatal("too many mismatches")
				}
			}
		}
	}
}

// TestReseedMatchesOracle pins the replicate salting SweepSeeds applies
// on top of the derived seed.
func TestReseedMatchesOracle(t *testing.T) {
	for _, cfg := range compatConfigs() {
		derived := CellSeed(cfg, 3)

		want := cfg
		oldReseed(&want, derived)

		got := cfg
		scenario.Reseed(&got, derived)

		if got != want {
			t.Fatalf("Reseed(%+v, %d):\n got %+v\nwant %+v", cfg, derived, got, want)
		}
	}
}

// TestStudySeedOptions checks the CLI-exposed study seeds reach the
// study cells (and only them — the rate-0 baselines must stay on the
// default stream so CellKey normalization keeps pairing them).
func TestStudySeedOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two scaled-down studies")
	}
	fcells, _, err := FailureStudy(FailureStudyOptions{
		Rates: []float64{0.2}, FailureSeed: 77,
		Apps: []string{"montage"}, Storages: []string{"gluster-nufa"}, Workers: 2,
		Build: buildSmallApp,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fcells {
		if c.Config.FailureRate > 0 && c.Config.FailureSeed != 77 {
			t.Errorf("failure cell lost its seed: %+v", c.Config)
		}
		if c.Config.FailureRate == 0 && c.Config.FailureSeed != 0 {
			t.Errorf("baseline unexpectedly reseeded: %+v", c.Config)
		}
	}
	ocells, _, err := OutageStudy(OutageStudyOptions{
		Rates: []float64{2}, OutageSeed: 88,
		Apps: []string{"montage"}, Storages: []string{"gluster-nufa"}, Workers: 2,
		Build: buildSmallApp,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ocells {
		if c.Config.OutageRate > 0 && c.Config.OutageSeed != 88 {
			t.Errorf("outage cell lost its seed: %+v", c.Config)
		}
		if c.Config.OutageRate == 0 && c.Config.OutageSeed != 0 {
			t.Errorf("baseline unexpectedly reseeded: %+v", c.Config)
		}
	}
}

// TestSpecRoundTripsRunConfig checks the JSON encoding of a RunConfig
// is lossless for everything serializable.
func TestSpecRoundTripsRunConfig(t *testing.T) {
	for _, cfg := range compatConfigs() {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var decoded RunConfig
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded, cfg) {
			t.Fatalf("JSON round trip lost fields:\n got %+v\nwant %+v", decoded, cfg)
		}
	}
}
