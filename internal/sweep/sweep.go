// Package sweep runs experiment matrices concurrently. It is the
// engine behind the harness's figure grids and ablations and the
// wfbench/wfsim CLIs: a worker pool that maps a list of configurations
// through a runner function, returning results in input order no matter
// how the cells were scheduled.
//
// The engine is generic so that anything shaped like "many independent
// cells, one result each" can use it — experiment cells, application
// profiles, replicate seeds. Determinism is by construction: the runner
// must be a pure function of its configuration (each simulation builds
// its own engine and RNG from the config), so results are bit-for-bit
// identical at any parallelism. Duplicate cells are memoized: a Key
// function names each configuration, and a shared Memo guarantees every
// distinct key runs exactly once even when requested concurrently.
//
// MapReplicates schedules the harness's sweeps: it fans each cell's
// seeds out as independent work items and streams per-cell reductions
// in cell order while the sweep runs, which is how exports write rows
// during a sweep and stay byte-identical to a serial run.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Engine maps configurations to results with a bounded worker pool.
type Engine[C, R any] struct {
	// Run executes one cell. It must be safe for concurrent use and
	// deterministic in its configuration. Required.
	Run func(C) (R, error)

	// Key names a configuration for memoization. A nil Key, a nil Memo,
	// or an empty key string disables caching for that cell.
	Key func(C) string

	// Parallel bounds concurrent Run calls; <= 0 means GOMAXPROCS.
	Parallel int

	// Memo caches results by key across Map calls (and across Engines
	// sharing the Memo). Duplicate keys in one batch run only once.
	Memo *Memo[R]

	// Progress, if set, is called once per completed cell in completion
	// order. Calls are serialized; the callback must not call back into
	// the engine.
	Progress func(Update[C, R])
}

// Update reports one completed cell to a Progress callback.
type Update[C, R any] struct {
	Index  int // position in the Map input
	Done   int // cells completed so far, including this one
	Total  int // cells in this Map call
	Config C
	Result R
	Err    error
	Cached bool // result came from the memo without running
}

// Map runs every configuration and returns the results in input order.
// All cells are attempted even when some fail; the returned error is the
// one from the lowest-index failing cell, so error reporting is as
// deterministic as the results themselves.
func (e *Engine[C, R]) Map(cfgs []C) ([]R, error) {
	return e.MapCtx(context.Background(), cfgs)
}

// MapCtx is Map with cancellation: once ctx is done no further cell
// starts. Cells already running finish (a simulation is not
// interruptible mid-run), their results are delivered to Progress as
// usual, and every unstarted cell fails with ctx's error — which Map's
// lowest-index rule then reports, so a canceled sweep returns promptly
// with ctx.Err() unless an earlier cell failed on its own.
func (e *Engine[C, R]) MapCtx(ctx context.Context, cfgs []C) ([]R, error) {
	if e.Run == nil {
		return nil, fmt.Errorf("sweep: Engine.Run is nil")
	}
	workers := e.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]R, len(cfgs))
	errs := make([]error, len(cfgs))

	var mu sync.Mutex // serializes Progress and the done counter
	done := 0
	report := func(i int, r R, err error, cached bool) {
		if e.Progress == nil {
			return
		}
		mu.Lock()
		done++
		e.Progress(Update[C, R]{
			Index: i, Done: done, Total: len(cfgs),
			Config: cfgs[i], Result: r, Err: err, Cached: cached,
		})
		mu.Unlock()
	}

	runOne := func(i int) {
		cfg := cfgs[i]
		var key string
		if e.Key != nil && e.Memo != nil {
			key = e.Key(cfg)
		}
		var (
			r      R
			err    error
			cached bool
		)
		if key != "" {
			r, err, cached = e.Memo.Do(key, func() (R, error) { return e.Run(cfg) })
		} else {
			r, err = e.Run(cfg)
		}
		results[i], errs[i] = r, err
		report(i, r, err, cached)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				// When a worker is free and ctx is done, the feeder's
				// select picks either case, so a cell can arrive after
				// cancellation; it does not start.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				runOne(i)
			}
		}()
	}
feed:
	for i := range cfgs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < len(cfgs); j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
