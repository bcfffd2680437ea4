package flow

import (
	"fmt"

	"ec2wfsim/internal/sim"
)

// This file preserves the original from-scratch water-filling solver as a
// self-contained oracle: a Net that recomputes the max-min fair rate of
// every active transfer on every event (transfer start, finish, capacity
// change), rebuilding each resource's flow list from the active set. The
// shipping solver performs the same pass over persistent membership
// lists, starting from the set of live resources instead of finding them
// through every flow–resource link, and taking each flow's completion
// ETA as it fixes the rate instead of in a second walk. The differential
// fuzzer (FuzzReallocate) and BenchmarkReallocate drive identical event
// sequences through this oracle and the real Net and require bit-equal
// timestamps and loads.
//
// The code is the historical implementation verbatim apart from renames
// (oracle* prefixes) and the removal of the stats the comparison does not
// need. Do not "improve" it: its value is that it stays the old
// arithmetic.

type oracleResource struct {
	name     string
	capacity float64

	// scratch state used during reallocation
	epoch    int64
	residual float64
	count    int
	flows    []*oracleTransfer

	load float64
}

func newOracleResource(name string, capacity float64) *oracleResource {
	if capacity <= 0 {
		panic(fmt.Sprintf("oracle: resource %q with non-positive capacity %g", name, capacity))
	}
	return &oracleResource{name: name, capacity: capacity}
}

func (r *oracleResource) Load() float64 { return r.load }

type oracleTransfer struct {
	pending   *oraclePending
	remaining float64
	rate      float64
	resources []*oracleResource
	fixed     bool
	id        int64
}

type oraclePending struct {
	done    bool
	waiters []*sim.Proc
}

func (pd *oraclePending) Wait(p *sim.Proc) {
	if pd.done {
		return
	}
	pd.waiters = append(pd.waiters, p)
	p.Suspend()
}

func (pd *oraclePending) complete() {
	pd.done = true
	for _, p := range pd.waiters {
		p.Resume()
	}
	pd.waiters = nil
}

type oracleNet struct {
	e          *sim.Engine
	active     []*oracleTransfer
	timer      *sim.Timer
	lastUpdate float64
	epoch      int64
	nextID     int64

	scratchRes []*oracleResource

	TotalBytes     float64
	TotalTransfers int64
}

func newOracleNet(e *sim.Engine) *oracleNet {
	return &oracleNet{e: e}
}

func (n *oracleNet) Active() int { return len(n.active) }

func (n *oracleNet) SetResourceCapacity(r *oracleResource, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("oracle: setting non-positive capacity %g on %q", capacity, r.name))
	}
	n.advance()
	r.capacity = capacity
	if !n.uses(r) {
		r.load = 0
	}
	n.reallocate()
	n.scheduleNext()
}

func (n *oracleNet) uses(r *oracleResource) bool {
	for _, t := range n.active {
		for _, tr := range t.resources {
			if tr == r {
				return true
			}
		}
	}
	return false
}

func (n *oracleNet) Transfer(p *sim.Proc, size float64, resources ...*oracleResource) {
	if size <= 0 {
		return
	}
	n.StartTransfer(size, resources...).Wait(p)
}

func (n *oracleNet) StartTransfer(size float64, resources ...*oracleResource) *oraclePending {
	pd := &oraclePending{}
	if size <= 0 {
		pd.done = true
		return pd
	}
	if len(resources) == 0 {
		panic("oracle: transfer with no resources")
	}
	uniq := resources[:0:0]
	for _, r := range resources {
		if r == nil {
			panic("oracle: nil resource in transfer")
		}
		seen := false
		for _, u := range uniq {
			if u == r {
				seen = true
				break
			}
		}
		if !seen {
			uniq = append(uniq, r)
		}
	}
	n.nextID++
	t := &oracleTransfer{pending: pd, remaining: size, resources: uniq, id: n.nextID}
	n.TotalBytes += size
	n.TotalTransfers++

	n.advance()
	n.active = append(n.active, t)
	n.reallocate()
	n.scheduleNext()
	return pd
}

func (n *oracleNet) advance() {
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

func (n *oracleNet) reallocate() {
	n.epoch++
	resources := n.scratchRes[:0]
	for _, t := range n.active {
		t.fixed = false
		t.rate = 0
		for _, r := range t.resources {
			if r.epoch != n.epoch {
				r.epoch = n.epoch
				r.residual = r.capacity
				r.count = 0
				r.load = 0
				r.flows = r.flows[:0]
				resources = append(resources, r)
			}
			r.count++
			r.flows = append(r.flows, t)
		}
	}
	unfixed := len(n.active)
	for unfixed > 0 {
		var bottleneck *oracleResource
		bestShare := 0.0
		liveRes := resources[:0]
		for _, r := range resources {
			if r.count <= 0 {
				continue
			}
			liveRes = append(liveRes, r)
			share := r.residual / float64(r.count)
			if bottleneck == nil || share < bestShare {
				bottleneck = r
				bestShare = share
			}
		}
		resources = liveRes
		if bottleneck == nil {
			panic("oracle: unfixed transfers with no remaining resources")
		}
		if bestShare < 0 {
			bestShare = 0
		}
		for _, t := range bottleneck.flows {
			if t.fixed {
				continue
			}
			t.rate = bestShare
			t.fixed = true
			unfixed--
			for _, r := range t.resources {
				r.residual -= bestShare
				if r.residual < 0 {
					r.residual = 0
				}
				r.count--
				r.load += bestShare
			}
		}
	}
	n.scratchRes = resources[:0]
}

func (n *oracleNet) scheduleNext() {
	if n.timer != nil {
		n.timer.Stop()
		n.timer = nil
	}
	if len(n.active) == 0 {
		return
	}
	next := -1.0
	for _, t := range n.active {
		if t.remaining <= completionEps {
			next = 0
			break
		}
		if t.rate <= 0 {
			continue
		}
		eta := t.remaining / t.rate
		if next < 0 || eta < next {
			next = eta
		}
	}
	if next < 0 {
		panic("oracle: all active transfers starved")
	}
	n.timer = n.e.After(next, n.onTimer)
}

func (n *oracleNet) onTimer() {
	n.timer = nil
	n.advance()
	remaining := n.active[:0]
	var done []*oracleTransfer
	for _, t := range n.active {
		if t.remaining <= completionEps {
			done = append(done, t)
		} else {
			remaining = append(remaining, t)
		}
	}
	n.active = remaining
	for _, t := range done {
		for _, r := range t.resources {
			r.load = 0
		}
	}
	for _, t := range done {
		t.pending.complete()
	}
	if len(n.active) > 0 {
		n.reallocate()
		n.scheduleNext()
	}
}

// oracleDriver runs FuzzReallocate scripts (fuzz_test.go) through the
// oracle. It is the harness adapter, not part of the historical code.
type oracleDriver struct {
	n  *oracleNet
	rs []*oracleResource
}

func newOracleDriver(e *sim.Engine, caps []float64) *oracleDriver {
	d := &oracleDriver{n: newOracleNet(e), rs: make([]*oracleResource, 0, len(caps))}
	for i, c := range caps {
		d.rs = append(d.rs, newOracleResource(resName(i), c))
	}
	return d
}

func (d *oracleDriver) pick(idxs []int) []*oracleResource {
	rs := make([]*oracleResource, len(idxs))
	for i, idx := range idxs {
		rs[i] = d.rs[idx]
	}
	return rs
}

func (d *oracleDriver) transfer(p *sim.Proc, size float64, res []int) {
	d.n.Transfer(p, size, d.pick(res)...)
}

// fanout reproduces the historical fan-out idiom: one StartTransfer per
// shard (each paying a full reallocation), a private window-cap resource,
// then waiting the shard handles in order.
func (d *oracleDriver) fanout(p *sim.Proc, size float64, shards [][]int, capRate float64) {
	var cap *oracleResource
	if capRate > 0 {
		cap = newOracleResource("win", capRate)
	}
	var pds []*oraclePending
	for _, sh := range shards {
		var rs []*oracleResource
		if cap != nil {
			rs = append(rs, cap)
		}
		rs = append(rs, d.pick(sh)...)
		pds = append(pds, d.n.StartTransfer(size, rs...))
	}
	for _, pd := range pds {
		pd.Wait(p)
	}
}

func (d *oracleDriver) setCapacity(idx int, c float64) { d.n.SetResourceCapacity(d.rs[idx], c) }
func (d *oracleDriver) load(idx int) float64           { return d.rs[idx].Load() }
func (d *oracleDriver) activeCount() int               { return d.n.Active() }
func (d *oracleDriver) totals() (float64, int64)       { return d.n.TotalBytes, d.n.TotalTransfers }
func (d *oracleDriver) check() error                   { return nil }
