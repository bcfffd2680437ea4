package flow

import "ec2wfsim/internal/sim"

// A Batch registers several transfers as one atomic graph update: Add
// stages shard transfers, Run inserts them all and re-solves the network
// once, then blocks until every shard completes. It is the one
// registration path: Transfer runs a one-shard batch, and striped fan-out
// I/O (one logical read spread over every PVFS server) adds a shard per
// server, so N shards cost one reallocation instead of N. The batch is
// its own completion handle, and it and its shard records recycle
// through the network's free lists.
//
// A batch must be staged and run within a single process turn (no parks
// between NewBatch and Run) so its shards join the active set
// contiguously, and must not be reused after Run returns.
type Batch struct {
	n    *Net
	ts   []*transfer // staged shards, attached by Run
	refs int         // shards still in flight
	p    *sim.Proc   // the process parked in Run
}

// NewBatch opens an empty batch.
func (n *Net) NewBatch() *Batch {
	if k := len(n.freeBatches); k > 0 {
		b := n.freeBatches[k-1]
		n.freeBatches[k-1] = nil
		n.freeBatches = n.freeBatches[:k-1]
		return b
	}
	return &Batch{n: n, ts: make([]*transfer, 0, 8)}
}

// Add stages one shard transfer of size bytes across the given resources.
// A zero size is a no-op shard; a negative size or an empty resource list
// panics with *ArgumentError.
func (b *Batch) Add(size float64, resources ...*Resource) {
	b.add("Batch.Add", size, resources)
}

// add stages a shard. It is the boundary check for both entry points
// (call names the one in any panic): a negative size and an empty or nil
// resource list are caller bugs and never reach the solver.
func (b *Batch) add(call string, size float64, resources []*Resource) {
	if size == 0 {
		return
	}
	if size < 0 {
		panic(badArg(call, "size", "negative transfer size %g", size))
	}
	if len(resources) == 0 {
		panic(badArg(call, "resources", "transfer with no resources"))
	}
	for _, r := range resources {
		if r == nil {
			panic(badArg(call, "resources", "nil resource in transfer"))
		}
	}
	b.ts = append(b.ts, b.n.stage(b, size, resources))
}

// Run registers every staged shard under a single reallocation and blocks
// p until all of them complete. The batch is recycled; do not use it (or
// keep references to it) afterwards.
func (b *Batch) Run(p *sim.Proc) {
	n := b.n
	if len(b.ts) > 0 {
		n.advance()
		for i, t := range b.ts {
			n.attach(t)
			b.ts[i] = nil
		}
		b.ts = b.ts[:0]
		n.reallocate()
		b.p = p
		p.Suspend()
	}
	n.freeBatches = append(n.freeBatches, b)
}

// complete records one shard finishing; the last one resumes the process
// parked in Run. Completions fire from the network's timer, always after
// Run has parked.
func (b *Batch) complete() {
	b.refs--
	if b.refs > 0 {
		return
	}
	b.p.Resume()
	b.p = nil
}
