package flow

import "ec2wfsim/internal/sim"

// A Batch registers several transfers as one atomic graph update: Add
// stages shard transfers, Run inserts them all and re-solves the network
// once, then blocks until every shard completes. This is the
// entry point for striped fan-out I/O (one logical read spread over every
// PVFS server): N shards cost one reallocation instead of N, and all
// bookkeeping (the batch itself, the shared completion handle, the shard
// records) recycles through the network's free lists.
//
// A batch must be staged and run within a single process turn (no parks
// between NewBatch and Run) so its shards join the active set
// contiguously, and must not be reused after Run returns.
type Batch struct {
	n  *Net
	pd *Pending
	ts []*transfer
}

// NewBatch opens an empty batch.
func (n *Net) NewBatch() *Batch {
	var b *Batch
	if k := len(n.freeBatches); k > 0 {
		b = n.freeBatches[k-1]
		n.freeBatches[k-1] = nil
		n.freeBatches = n.freeBatches[:k-1]
	} else {
		b = &Batch{n: n, ts: make([]*transfer, 0, 8)}
	}
	b.pd = n.getPending()
	return b
}

// Add stages one shard transfer of size bytes across the given resources.
// A zero size is a no-op shard; a negative size or an empty resource list
// panics with *ArgumentError.
func (b *Batch) Add(size float64, resources ...*Resource) {
	if size == 0 {
		return
	}
	validateTransferArgs("Batch.Add", size, resources)
	b.ts = append(b.ts, b.n.stage(b.pd, size, resources))
}

// Run registers every staged shard under a single reallocation and blocks
// p until all of them complete. The batch is recycled; do not use it (or
// keep references to it) afterwards.
func (b *Batch) Run(p *sim.Proc) {
	n := b.n
	if len(b.ts) == 0 {
		b.pd.done = true
	} else {
		n.advance()
		for _, t := range b.ts {
			n.attach(t)
		}
		n.sol.solve(n.active)
		n.scheduleNext()
	}
	b.pd.Wait(p)
	n.releasePending(b.pd)
	b.pd = nil
	for i := range b.ts {
		b.ts[i] = nil
	}
	b.ts = b.ts[:0]
	n.freeBatches = append(n.freeBatches, b)
}
