package sweep

import "context"

// MapReplicates is the two-level scheduler: every cell fans `seeds`
// replicate units onto the engine's worker pool as independent work
// items, so a single cell with many seeds saturates the pool exactly
// like many cells with one seed each — there is one shared queue of
// (cell, replicate) units, not a per-cell inner loop.
//
// derive builds the configuration for one replicate of a cell;
// derive(cell, 0) conventionally returns the cell unchanged. Results
// are placed by (cell, replicate) index, so the returned matrix — and
// any reduction over it — is in seed-index order regardless of which
// worker finished first: determinism is by construction, not by
// scheduling.
//
// reduce, if non-nil, streams per-cell reductions while the sweep runs:
// it is called once per cell whose replicates all succeeded, in cell
// order (a cell that finishes early is reduced once every earlier cell
// has been reduced or skipped), with that cell's runs in seed-index
// order. Calls are serialized; reduce must not call back into the
// engine. Cells with a failed replicate are skipped, and the first
// error — by flattened (cell, replicate) index, so error reporting is
// as deterministic as the results — is returned alongside the matrix.
func (e *Engine[C, R]) MapReplicates(ctx context.Context, cells []C, seeds int,
	derive func(cell C, rep int) C, reduce func(cell int, runs []R)) ([][]R, error) {
	if seeds <= 0 {
		seeds = 1
	}
	flat := make([]C, 0, len(cells)*seeds)
	for _, cell := range cells {
		for rep := 0; rep < seeds; rep++ {
			flat = append(flat, derive(cell, rep))
		}
	}

	byCell := make([][]R, len(cells))
	for i := range byCell {
		byCell[i] = make([]R, seeds)
	}
	failed := make([]bool, len(cells))
	remaining := make([]int, len(cells))
	for i := range remaining {
		remaining[i] = seeds
	}

	// next is the first cell not yet reduced or skipped, so reductions
	// run in cell order.
	next := 0

	// Shadow the engine so the caller's Progress still sees every
	// replicate completion (flattened index) while this layer tracks
	// per-cell completion counts. eng shares Run/Key/Memo/Parallel.
	eng := *e
	prev := e.Progress
	eng.Progress = func(u Update[C, R]) {
		if prev != nil {
			prev(u)
		}
		cell := u.Index / seeds
		rep := u.Index % seeds
		// Progress calls are serialized by MapCtx, so the per-cell
		// bookkeeping and the cursor need no further locking.
		if u.Err != nil {
			failed[cell] = true
		} else {
			byCell[cell][rep] = u.Result
		}
		remaining[cell]--
		for reduce != nil && next < len(cells) && remaining[next] == 0 {
			if !failed[next] {
				reduce(next, byCell[next])
			}
			next++
		}
	}

	results, err := eng.MapCtx(ctx, flat)
	// MapCtx has delivered everything (canceled units never reach
	// Progress); one final pass pins the matrix to the authoritative
	// flat results.
	for i, r := range results {
		cell, rep := i/seeds, i%seeds
		byCell[cell][rep] = r
	}
	return byCell, err
}
