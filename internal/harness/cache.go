package harness

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ec2wfsim/internal/resultcache"
	"ec2wfsim/internal/scenario"
)

// The persistent result cache (internal/resultcache) sits under the
// process-wide memo: a cell that misses the in-process cache consults
// the on-disk store before simulating, so repeated cells are free
// across invocations, CI runs and users sharing a store directory.
// A cached row is RunResult's own JSON: the spec and every metric the
// JSON and CSV exports, the replicate aggregations and the figures
// consume, in RunResult's fixed field order, so the encoding is a pure
// function of the result and cold-vs-warm exports are byte-identical.
// The row leaves out the execution trace: a cache-served RunResult has
// nil Spans and Cluster, which is why trace-rendering paths (wfsim
// -gantt/-csv, event recording, Amortize) never run through the cache.
// testdata/cache_row.json pins the row's bytes: changing them changes
// the entry format, which must bump resultcache.SchemaVersion.

// CacheKey derives the persistent-store key for a configuration:
// the canonical scenario key of the effective spec (replicates carry
// their reseeded spec, so every replicate is its own entry) and the
// effective seed. Custom in-memory workflows are not keyable — the DAG
// is not part of the spec — so those configurations never touch the
// store.
func CacheKey(cfg RunConfig) (resultcache.Key, bool) {
	if cfg.Workflow != nil {
		return resultcache.Key{}, false
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	return resultcache.Key{Cell: scenario.Key(&cfg), Seed: seed}, true
}

// encodeRow renders a result's canonical cached payload.
func encodeRow(r *RunResult) ([]byte, error) {
	return json.Marshal(r)
}

// decodeRow rebuilds a RunResult from a cached payload. Decoding is
// strict — unknown fields mean the entry was written by a newer layout
// under the same schema version, and recomputing beats misreading. The
// embedded spec must render the same canonical cell key the entry was
// fetched under, closing the loop between file content and key; the
// result then carries the caller's configuration.
func decodeRow(data []byte, cfg RunConfig, key resultcache.Key) (*RunResult, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r RunResult
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("harness: cached row undecodable: %w", err)
	}
	if got := scenario.Key(&r.Config); got != key.Cell {
		return nil, fmt.Errorf("harness: cached row spec renders key %q, want %q", got, key.Cell)
	}
	r.Config = cfg
	return &r, nil
}

// cachedRun wraps a cell runner with the persistent store: consult
// before simulating, persist after. Any store trouble — a miss, a
// corrupt or schema-mismatched entry, an undecodable payload — falls
// back to recomputing, and a fresh Put overwrites the bad entry; a
// failed Put is not a run failure (the result is still correct, the
// next run just recomputes it).
func cachedRun(store *resultcache.Store, run func(RunConfig) (*RunResult, error)) func(RunConfig) (*RunResult, error) {
	return func(cfg RunConfig) (*RunResult, error) {
		key, ok := CacheKey(cfg)
		if !ok {
			return run(cfg)
		}
		if data, err := store.Get(key); err == nil {
			if r, derr := decodeRow(data, cfg, key); derr == nil {
				return r, nil
			}
		}
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		if data, eerr := encodeRow(r); eerr == nil {
			_ = store.Put(key, data)
		}
		return r, nil
	}
}
