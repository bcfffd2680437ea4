package harness

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ec2wfsim/internal/resultcache"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/sweep"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

// cacheTestConfigs is a small grid: big enough to exercise distinct
// entries, small enough to simulate twice per test.
func cacheTestConfigs() []RunConfig {
	return []RunConfig{
		{App: "montage", Storage: "pvfs", Workers: 2},
		{App: "montage", Storage: "pvfs", Workers: 4},
	}
}

func openTestCache(t *testing.T, dir string) *resultcache.Store {
	t.Helper()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// rowsJSON renders sweep results exactly like the streaming JSON export,
// for byte-level comparison of cold and warm runs.
func rowsJSON(t *testing.T, results []*RunResult) []byte {
	t.Helper()
	var out []byte
	for _, r := range results {
		b, err := json.Marshal(r.JSONRow())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
		out = append(out, '\n')
	}
	return out
}

func TestCacheWarmRunRecomputesNothing(t *testing.T) {
	dir := t.TempDir()
	cfgs := cacheTestConfigs()

	cold := openTestCache(t, dir)
	coldResults, err := Sweep(cfgs, SweepOptions{Parallel: 2, NoMemo: true, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cold.Stats(); hits != 0 || misses != int64(len(cfgs)) {
		t.Fatalf("cold stats = %d/%d, want 0 hits, %d misses", hits, misses, len(cfgs))
	}

	warm := openTestCache(t, dir)
	warmResults, err := Sweep(cfgs, SweepOptions{Parallel: 2, NoMemo: true, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := warm.Stats(); hits != int64(len(cfgs)) || misses != 0 {
		t.Fatalf("warm stats = %d/%d, want every cell served from the store", hits, misses)
	}
	coldJSON, warmJSON := rowsJSON(t, coldResults), rowsJSON(t, warmResults)
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("warm export differs from cold:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
	// Cache-served results carry metrics only: no trace, no cluster.
	for i, r := range warmResults {
		if r.Spans != nil || r.Cluster != nil {
			t.Errorf("warm result %d carries a trace (Spans=%v Cluster=%v); cache rows are metrics-only",
				i, r.Spans != nil, r.Cluster != nil)
		}
		if r.Makespan != coldResults[i].Makespan {
			t.Errorf("warm result %d makespan %v != cold %v", i, r.Makespan, coldResults[i].Makespan)
		}
	}
}

// tamperEntry bit-flips one byte inside a stored entry's payload and
// returns the entry path. The flip keeps the JSON valid, so only the
// integrity checksum can catch it.
func tamperEntry(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no cache entries to tamper with (err=%v)", err)
	}
	path := names[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the makespan value in the embedded row.
	i := indexAfter(data, `"makespan_s":`)
	if i < 0 {
		t.Fatalf("entry %s has no makespan field", path)
	}
	data[i+1] ^= 0x01 // second digit: never a leading zero, still valid JSON
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func indexAfter(data []byte, marker string) int {
	for i := 0; i+len(marker) <= len(data); i++ {
		if string(data[i:i+len(marker)]) == marker {
			return i + len(marker)
		}
	}
	return -1
}

func TestCacheTamperedEntryRecomputesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfgs := cacheTestConfigs()

	cold := openTestCache(t, dir)
	coldResults, err := Sweep(cfgs, SweepOptions{Parallel: 2, NoMemo: true, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	coldJSON := rowsJSON(t, coldResults)

	path := tamperEntry(t, dir)

	// The damage surfaces as the typed integrity error at the store
	// layer...
	probe := openTestCache(t, dir)
	keys, kerr := probe.Keys()
	tampered := resultcache.Key{}
	found := false
	for _, k := range keys {
		if _, gerr := probe.Get(k); gerr != nil {
			tampered, found = k, true
			var ce *resultcache.CorruptError
			if !errors.As(gerr, &ce) {
				t.Fatalf("tampered entry error = %v (%T), want *resultcache.CorruptError", gerr, gerr)
			}
		}
	}
	if kerr != nil {
		// Keys itself may report the corruption instead when the flip
		// broke the envelope; either typed surface is acceptable.
		var ce *resultcache.CorruptError
		if !errors.As(kerr, &ce) {
			t.Fatalf("Keys error = %v, want *resultcache.CorruptError", kerr)
		}
	} else if !found {
		t.Fatalf("no entry failed verification after tampering %s", path)
	}

	// ...and the harness silently recomputes: same rows, byte for byte,
	// as the cold run, with the tampered cell counted as a miss.
	warm := openTestCache(t, dir)
	warmResults, err := Sweep(cfgs, SweepOptions{Parallel: 2, NoMemo: true, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if string(rowsJSON(t, warmResults)) != string(coldJSON) {
		t.Errorf("post-tamper run differs from cold run")
	}
	if hits, misses := warm.Stats(); hits != 1 || misses != 1 {
		t.Errorf("post-tamper stats = %d/%d, want 1 hit (intact entry), 1 miss (tampered)", hits, misses)
	}

	// The recompute overwrote the damaged entry: a fresh store now reads
	// every entry clean.
	if found {
		repaired := openTestCache(t, dir)
		if _, err := repaired.Get(tampered); err != nil {
			t.Errorf("tampered entry not repaired by recompute: %v", err)
		}
	}
}

func TestCacheFutureSchemaEntryInvalidatesCleanly(t *testing.T) {
	dir := t.TempDir()
	cfgs := cacheTestConfigs()[:1]

	cold := openTestCache(t, dir)
	coldResults, err := Sweep(cfgs, SweepOptions{Parallel: 1, NoMemo: true, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the entry under a bumped schema version — the situation
	// after a format change, when old stores hold entries the new code
	// must refuse rather than misread.
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one entry, got %v (err=%v)", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]any
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e["schema"] = resultcache.SchemaVersion + 1
	data, err = json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	probe := openTestCache(t, dir)
	key, ok := CacheKey(cfgs[0])
	if !ok {
		t.Fatal("grid cell not cacheable")
	}
	var se *resultcache.SchemaError
	if _, err := probe.Get(key); !errors.As(err, &se) {
		t.Fatalf("future-schema entry error = %v, want *resultcache.SchemaError", err)
	}

	warm := openTestCache(t, dir)
	warmResults, err := Sweep(cfgs, SweepOptions{Parallel: 1, NoMemo: true, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if string(rowsJSON(t, warmResults)) != string(rowsJSON(t, coldResults)) {
		t.Errorf("recompute after schema mismatch differs from cold run")
	}
	if hits, misses := warm.Stats(); hits != 0 || misses != 1 {
		t.Errorf("stats = %d/%d, want the mismatched entry treated exactly like a miss", hits, misses)
	}
}

func TestCacheKeyExcludesCustomWorkflows(t *testing.T) {
	t.Parallel()
	cfg := RunConfig{Workflow: workflow.New("custom"), Storage: "local", Workers: 1}
	if _, ok := CacheKey(cfg); ok {
		t.Error("CacheKey accepted a custom in-memory workflow; the DAG is not part of the key")
	}
	if _, ok := CacheKey(RunConfig{App: "montage", Storage: "pvfs", Workers: 2}); !ok {
		t.Error("CacheKey rejected a plain grid cell")
	}
}

func TestCacheSweepSeedsReplicateEntries(t *testing.T) {
	dir := t.TempDir()
	cfgs := cacheTestConfigs()[:1]
	const seeds = 3

	cold := openTestCache(t, dir)
	coldReps, err := SweepSeeds(cfgs, SweepOptions{Seeds: seeds, Parallel: 2, NoMemo: true, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	// Every replicate is its own entry: the reseeded spec keys it.
	if n, _ := cold.Len(); n != seeds {
		t.Fatalf("store holds %d entries after a %d-seed cell, want %d", n, seeds, seeds)
	}

	warm := openTestCache(t, dir)
	warmReps, err := SweepSeeds(cfgs, SweepOptions{Seeds: seeds, Parallel: 2, NoMemo: true, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := warm.Stats(); hits != seeds || misses != 0 {
		t.Fatalf("warm stats = %d/%d, want all %d replicates served from the store", hits, misses, seeds)
	}
	coldRow, warmRow := coldReps[0].JSONRow(), warmReps[0].JSONRow()
	if !reflect.DeepEqual(coldRow, warmRow) {
		t.Errorf("warm aggregation differs from cold:\ncold: %+v\nwarm: %+v", coldRow, warmRow)
	}
}

// TestWarmStoreRejectsBadKnob: a negative MaxRetries keys as the plain
// cell at failure rate 0, so the knobs must be checked before the memo
// and the store are read, or a warm cache would serve a configuration
// that a cold run rejects.
func TestWarmStoreRejectsBadKnob(t *testing.T) {
	dir := t.TempDir()
	cell := RunConfig{App: "montage", Storage: "nfs", Workers: 2}
	if _, err := Sweep([]RunConfig{cell}, SweepOptions{NoMemo: true, Cache: openTestCache(t, dir)}); err != nil {
		t.Fatal(err)
	}
	bad := cell
	bad.MaxRetries = -1
	if CellKey(bad) != CellKey(cell) {
		t.Fatalf("MaxRetries at rate 0 changed the key; the warm store would not be consulted")
	}
	warm := openTestCache(t, dir)
	_, err := Sweep([]RunConfig{bad}, SweepOptions{Cache: warm})
	var fe *wms.FaultError
	if !errors.As(err, &fe) || fe.Field != "max_retries" {
		t.Errorf("Sweep err = %v, want a *wms.FaultError for max_retries", err)
	}
	_, err = SweepSeeds([]RunConfig{bad}, SweepOptions{Seeds: 2, Cache: warm})
	if !errors.As(err, &fe) || fe.Field != "max_retries" {
		t.Errorf("SweepSeeds err = %v, want a *wms.FaultError for max_retries", err)
	}
	if hits, _ := warm.Stats(); hits != 0 {
		t.Errorf("the store served %d hit(s) for a rejected configuration", hits)
	}
}

// TestWarmStoreRejectsUnformableCell: a grid holding a cell its storage
// system cannot form (gluster-nufa on one worker) fails SweepSeeds with
// the catalog's typed error before any cell runs or the store is read,
// even when the grid's other cells are warm.
func TestWarmStoreRejectsUnformableCell(t *testing.T) {
	dir := t.TempDir()
	ok := RunConfig{App: "epigenome", Storage: "nfs", Workers: 2}
	if _, err := Sweep([]RunConfig{ok}, SweepOptions{NoMemo: true, Cache: openTestCache(t, dir)}); err != nil {
		t.Fatal(err)
	}
	warm := openTestCache(t, dir)
	progressed := 0
	grid := []RunConfig{ok, {App: "epigenome", Storage: "gluster-nufa", Workers: 1}}
	_, err := SweepSeeds(grid, SweepOptions{
		Seeds: 2, Cache: warm,
		Progress: func(sweep.Update[RunConfig, *RunResult]) { progressed++ },
	})
	var we *storage.WorkersError
	if !errors.As(err, &we) || we.System != "gluster-nufa" || we.Workers != 1 {
		t.Errorf("SweepSeeds err = %v, want a *storage.WorkersError for gluster-nufa/1", err)
	}
	if progressed != 0 {
		t.Errorf("%d cell(s) reported progress before the grid was rejected", progressed)
	}
	if hits, misses := warm.Stats(); hits != 0 || misses != 0 {
		t.Errorf("the store was read for a rejected grid: %d hit(s), %d miss(es)", hits, misses)
	}
}
