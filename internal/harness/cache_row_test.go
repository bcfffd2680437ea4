package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ec2wfsim/internal/cost"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

// cacheRowPath holds the committed bytes of one cached row. The file
// pins the row layout across commits: a store written by an older
// binary must keep serving warm hits to a newer one, and nothing else
// compares one commit's rows with another's.
var cacheRowPath = filepath.Join("testdata", "cache_row.json")

// cacheRowFixture is a result with a distinct non-zero value in every
// serialized field, nested stats and both cost breakdowns included, so
// a dropped, renamed, retyped or reordered field changes the bytes. The
// one zero is CostHour.Billing: cost.PerHour is the constant 0.
func cacheRowFixture() *RunResult {
	return &RunResult{
		Config: RunConfig{
			App: "montage", Storage: "pvfs", Workers: 4,
			WorkerType: "m1.large", DataAware: true,
			Seed: 11, AppSeed: 12,
			InitializeDisks: true, InitializeBytes: 13e9,
			Faults: wms.Faults{
				FailureRate: 0.14, MaxRetries: 15, FailureSeed: 16,
				OutageRate: 0.17, OutageDuration: 18.5, OutageSeed: 19,
				CheckpointInterval: 20.25,
			},
		},
		Makespan:      1234.5,
		ProvisionTime: 67.125,
		Utilization:   0.8125,
		MemoryWaits:   21,
		FaultCounts: wms.FaultCounts{
			Failures:        22,
			Retries:         23,
			Outages:         24,
			OutageKills:     25,
			LostWorkSeconds: 26.5,
			Checkpoints:     27,
			CheckpointBytes: 28.5e6,
		},
		Stats: storage.Stats{
			Reads: 31, Writes: 32, NetworkBytes: 33.5e9,
			CacheHits: 34, CacheMisses: 35,
			ServerCacheHits: 36, ServerCacheMisses: 37,
			Gets: 38, Puts: 39,
			BytesDownloaded: 40.5e6, BytesUploaded: 41.5e6,
		},
		CostHour: cost.Breakdown{
			Billing: cost.PerHour, Makespan: 3600,
			ResourceCost: 2.72, RequestCost: 0.043, StorageCost: 0.0044,
			NodeHours: 4,
		},
		CostSecond: cost.Breakdown{
			Billing: cost.PerSecond, Makespan: 1234.5,
			ResourceCost: 0.93, RequestCost: 0.053, StorageCost: 0.0054,
			NodeHours: 1.37,
		},
	}
}

// TestCacheRowBytesStable checks that encodeRow reproduces the committed
// row byte for byte and that decodeRow reads it back as the fixture,
// carrying the caller's configuration.
func TestCacheRowBytesStable(t *testing.T) {
	want := cacheRowFixture()
	data, err := encodeRow(want)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(cacheRowPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(golden) {
		t.Fatalf("encodeRow changed the cached row bytes:\n got %s\nwant %s", data, golden)
	}

	key, ok := CacheKey(want.Config)
	if !ok {
		t.Fatal("fixture config not cacheable")
	}
	// The decoded result carries the caller's config, in-memory fields
	// included, not a copy rebuilt from the row.
	want.Config.Workflow = workflow.New("caller")
	got, err := decodeRow(golden, want.Config, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decodeRow(%s):\n got %+v\nwant %+v", cacheRowPath, got, want)
	}
}
