// Package flow implements max-min fair sharing of capacity resources
// among concurrent bulk transfers, integrated with the sim engine.
//
// A Transfer moves a number of bytes across a set of Resources (for
// example: source disk read, source NIC out, destination NIC in,
// destination disk write). At any instant each active transfer receives a
// rate determined by progressive filling (water-filling): the most
// contended resource is saturated first, its flows are fixed at their fair
// share, and the algorithm recurses on the remaining capacity. This is the
// standard fluid approximation for TCP fair share and for disk bandwidth
// sharing, and it is what makes "N clients hammering one NFS server" come
// out N times slower, automatically.
//
// Rates are recomputed whenever a transfer starts or finishes or a
// capacity changes, so rates are piecewise constant and completions are
// exact. The network maintains an explicit transfer↔resource graph and
// the set of live resources (those some active transfer crosses), and
// each event re-solves every active transfer in one pass that starts
// from the live set and also yields the next completion (see solver): on
// the measured workloads an event's contended neighbourhood usually
// spans most of the active set, so restricting the solve to it costs
// more than it saves. Transfer records, batches, private rate-cap
// resources (AcquireCap) and the per-event scratch all recycle through
// free lists, so steady-state transfer churn performs no allocations.
//
// Every transfer enters the graph through a Batch. A blocking Transfer is
// a one-shard batch; fan-out I/O (one logical operation striping over
// many servers) adds one shard per server, so all shards join the graph
// under a single reallocation instead of paying one full solve each.
package flow

import (
	"ec2wfsim/internal/sim"
)

// completionEps is the residual byte count below which a transfer is
// considered complete. It absorbs float64 rounding in rate integration:
// for a terabyte-scale transfer the residue of remaining - rate*dt is on
// the order of 1e-4 bytes, so half a byte is both physically meaningless
// and numerically safe. (A smaller epsilon can livelock: the rescheduled
// completion delta underflows the clock's ULP and time stops advancing.)
const completionEps = 0.5

// Resource is a capacity (bytes/second) shared by transfers. Resources are
// created once (per NIC, per disk channel, ...) and passed to Transfer.
type Resource struct {
	name     string
	capacity float64

	// Solver scratch (reset per solve, see solver.solve) and the current
	// committed allocation. Kept adjacent to capacity so the whole set
	// the water-filling inner loop touches shares a cache line.
	residual float64
	count    int
	load     float64 // committed allocation, for utilization queries
	liveIdx  int     // position in Net.live while members is non-empty

	// pooledCap marks resources minted by AcquireCap; pooled reports
	// one currently sitting in the free list. ReleaseCap uses them to
	// reject shared infrastructure resources and double releases, which
	// would otherwise silently corrupt the cap pool.
	pooledCap bool
	pooled    bool

	// members lists the active transfers crossing this resource, in
	// start order — one side of the solver's bipartite graph. It is
	// maintained incrementally by attach/detach, which also keep the
	// resource in Net.live exactly while the list is non-empty.
	members []*transfer
}

// NewResource returns a resource with the given capacity in bytes/second.
// Capacity must be positive: a zero-capacity resource would block forever.
func NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic(badArg("NewResource", "capacity", "resource %q with non-positive capacity %g", name, capacity))
	}
	// Membership lists churn constantly on hot resources; starting with
	// room for a few members skips the first rounds of regrowth.
	return &Resource{name: name, capacity: capacity, members: make([]*transfer, 0, 8)}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured capacity in bytes/second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Load returns the rate currently allocated across this resource.
func (r *Resource) Load() float64 { return r.load }

// Utilization returns Load/Capacity in [0,1].
func (r *Resource) Utilization() float64 { return r.load / r.capacity }

// transfer is one in-flight bulk movement — a node of the solver's graph.
// Records are recycled through the network's free list once complete.
type transfer struct {
	batch     *Batch
	remaining float64
	rate      float64
	resources []*Resource // deduplicated, in caller order; owned, reused
	seq       int64       // attach stamp: seq order is start order
	fixed     int64       // epoch of the solve that last fixed the rate
}

// Net manages the set of active transfers over a shared resource pool.
type Net struct {
	e          *sim.Engine
	active     []*transfer // in start order
	live       []*Resource // resources with active members, in any order
	seq        int64       // last transfer.seq stamped
	timer      *sim.ReTimer
	lastUpdate float64
	sol        solver

	// Free lists: steady-state churn recycles transfer records,
	// batches, private rate caps and the onTimer scratch, so the hot
	// path performs no allocations.
	freeTransfers []*transfer
	tBlock        []transfer // bump region; getTransfer carves when the free list is dry
	freeBatches   []*Batch
	freeCaps      []*Resource
	doneScratch   []*transfer

	// Stats.
	TotalBytes     float64
	TotalTransfers int64
}

// NewNet returns an empty transfer network bound to the engine.
func NewNet(e *sim.Engine) *Net {
	n := &Net{e: e}
	n.timer = e.NewReTimer(n.onTimer)
	return n
}

// Active returns the number of in-flight transfers.
func (n *Net) Active() int { return len(n.active) }

// SetResourceCapacity changes a resource's capacity and immediately
// reallocates rates. It is used to model disk initialization (the
// first-write penalty disappearing) mid-simulation.
func (n *Net) SetResourceCapacity(r *Resource, capacity float64) {
	if capacity <= 0 {
		panic(badArg("SetResourceCapacity", "capacity", "setting non-positive capacity %g on %q", capacity, r.name))
	}
	n.advance()
	r.capacity = capacity
	if len(r.members) == 0 {
		// An idle resource is skipped by the solver (which only visits
		// live resources), so a load left over from earlier traffic
		// would survive the capacity change and Utilization() could
		// report nonsense (> 1) on a drained resource.
		r.load = 0
	}
	n.reallocate()
}

// Transfer moves size bytes across the given resources, blocking p until
// the transfer completes. A transfer of zero size returns immediately; a
// negative size or an empty resource list panics with *ArgumentError. It
// is a one-shard Batch, so blocking transfers and fan-outs share one
// registration path.
func (n *Net) Transfer(p *sim.Proc, size float64, resources ...*Resource) {
	b := n.NewBatch()
	b.add("Transfer", size, resources)
	b.Run(p)
}

// stage builds a transfer record (deduplicating its resource list so a
// transfer that lists the same resource twice does not double-count
// itself during water-filling) and accounts it, without touching the
// graph yet.
func (n *Net) stage(b *Batch, size float64, resources []*Resource) *transfer {
	t := n.getTransfer()
	for _, r := range resources {
		seen := false
		for _, u := range t.resources {
			if u == r {
				seen = true
				break
			}
		}
		if !seen {
			t.resources = append(t.resources, r)
		}
	}
	t.batch = b
	t.remaining = size
	b.refs++
	n.TotalBytes += size
	n.TotalTransfers++
	return t
}

// attach inserts t into the graph: the active list and every crossed
// resource's membership list, both in start order, stamped with the next
// start sequence number. A resource gaining its first member goes live.
func (n *Net) attach(t *transfer) {
	n.seq++
	t.seq = n.seq
	n.active = append(n.active, t)
	for _, r := range t.resources {
		if len(r.members) == 0 {
			r.liveIdx = len(n.live)
			n.live = append(n.live, r)
		}
		r.members = append(r.members, t)
	}
}

// detach removes a completed transfer from the graph, preserving member
// order, and clears the committed loads of the resources it crossed (the
// solver recomputes the ones that still carry traffic). A resource losing
// its last member leaves the live set by swap-remove.
func (n *Net) detach(t *transfer) {
	for _, r := range t.resources {
		for i, m := range r.members {
			if m == t {
				copy(r.members[i:], r.members[i+1:])
				r.members[len(r.members)-1] = nil
				r.members = r.members[:len(r.members)-1]
				break
			}
		}
		r.load = 0
		if len(r.members) == 0 {
			last := n.live[len(n.live)-1]
			n.live[r.liveIdx] = last
			last.liveIdx = r.liveIdx
			n.live[len(n.live)-1] = nil
			n.live = n.live[:len(n.live)-1]
		}
	}
}

// AcquireCap returns a private rate-limit resource from the network's
// pool — the graph-API way to model per-connection or per-request-window
// ceilings (one S3 connection, a PVFS client's request window) without
// allocating a Resource per operation. Return it with ReleaseCap once the
// transfers crossing it have completed.
func (n *Net) AcquireCap(name string, rate float64) *Resource {
	if rate <= 0 {
		panic(badArg("AcquireCap", "rate", "non-positive cap rate %g", rate))
	}
	if k := len(n.freeCaps); k > 0 {
		r := n.freeCaps[k-1]
		n.freeCaps[k-1] = nil
		n.freeCaps = n.freeCaps[:k-1]
		r.name = name
		r.capacity = rate
		r.pooled = false
		return r
	}
	r := NewResource(name, rate)
	r.pooledCap = true
	return r
}

// ReleaseCap returns an AcquireCap resource to the pool. The cap must be
// idle (all transfers crossing it completed) and must not be used again.
func (n *Net) ReleaseCap(r *Resource) {
	if !r.pooledCap {
		panic("flow: ReleaseCap of resource " + r.name + " that AcquireCap did not mint")
	}
	if r.pooled {
		panic("flow: double ReleaseCap of resource " + r.name)
	}
	if len(r.members) > 0 {
		panic("flow: ReleaseCap of resource " + r.name + " with active transfers")
	}
	r.pooled = true
	n.freeCaps = append(n.freeCaps, r)
}

// advance integrates progress up to the current time.
func (n *Net) advance() {
	now := n.e.Now()
	dt := now - n.lastUpdate
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, t := range n.active {
		t.remaining -= t.rate * dt
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
}

// reallocate re-solves every active transfer and arms the timer for the
// earliest completion the solve reports.
func (n *Net) reallocate() {
	n.timer.Stop()
	if len(n.active) == 0 {
		return
	}
	next := n.sol.solve(n.active, n.live)
	if next < 0 {
		// No completion can ever free capacity: the resources were
		// overcommitted by construction.
		panic("flow: all active transfers starved")
	}
	n.timer.Arm(next)
}

// onTimer completes finished transfers and re-plans.
func (n *Net) onTimer() {
	n.advance()
	remaining := n.active[:0]
	done := n.doneScratch[:0]
	for _, t := range n.active {
		if t.remaining <= completionEps {
			done = append(done, t)
		} else {
			remaining = append(remaining, t)
		}
	}
	n.active = remaining
	for _, t := range done {
		n.detach(t)
	}
	for _, t := range done {
		t.batch.complete()
	}
	n.reallocate()
	for _, t := range done {
		n.recycleTransfer(t)
	}
	n.doneScratch = done[:0]
}

// Free-list plumbing. Records are zeroed on recycle, not on reuse, so a
// freshly popped record is always clean.

func (n *Net) getTransfer() *transfer {
	if k := len(n.freeTransfers); k > 0 {
		t := n.freeTransfers[k-1]
		n.freeTransfers[k-1] = nil
		n.freeTransfers = n.freeTransfers[:k-1]
		return t
	}
	// Carve fresh records from a block so concurrently active transfers
	// sit contiguously (the solver walks them constantly) and each comes
	// with a pre-carved resource slice sized for the common fan-in.
	if len(n.tBlock) == 0 {
		block := make([]transfer, 32)
		res := make([]*Resource, 32*4)
		for i := range block {
			block[i].resources = res[i*4 : i*4 : (i+1)*4]
		}
		n.tBlock = block
	}
	t := &n.tBlock[0]
	n.tBlock = n.tBlock[1:]
	return t
}

func (n *Net) recycleTransfer(t *transfer) {
	t.batch = nil
	t.remaining = 0
	t.rate = 0
	t.seq = 0
	t.fixed = 0
	for i := range t.resources {
		t.resources[i] = nil
	}
	t.resources = t.resources[:0]
	n.freeTransfers = append(n.freeTransfers, t)
}
