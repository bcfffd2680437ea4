package wms

import (
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/workflow"
)

// dispatcher matches submitted tasks (Condor jobs) to requesting slots.
type dispatcher interface {
	// submit enqueues a task for execution.
	submit(t *workflow.Task)
	// request blocks until a task is available for a slot on node, or
	// returns nil once the dispatcher is closed and drained.
	request(p *sim.Proc, node *cluster.Node) *workflow.Task
	// close drains and releases all blocked slots.
	close()
}

// fifoDispatcher is the paper's Condor configuration: first come, first
// served, blind to where a job's data lives.
type fifoDispatcher struct {
	queue *sim.Mailbox[*workflow.Task]
}

func newFIFODispatcher(e *sim.Engine) *fifoDispatcher {
	return &fifoDispatcher{queue: sim.NewMailbox[*workflow.Task](e)}
}

func (d *fifoDispatcher) submit(t *workflow.Task) { d.queue.Put(t) }

func (d *fifoDispatcher) request(p *sim.Proc, node *cluster.Node) *workflow.Task {
	t, _ := d.queue.Get(p)
	return t
}

func (d *fifoDispatcher) close() { d.queue.Close() }

// Locator is implemented by storage systems that can report where a file
// physically lives (GlusterFS) so the data-aware scheduler can score
// placements.
type Locator interface {
	Owner(f *workflow.File) *cluster.Node
}

// NodeCacher is implemented by systems with per-node client caches (S3)
// so the data-aware scheduler can score cache affinity.
type NodeCacher interface {
	CachedOn(node *cluster.Node, f *workflow.File) bool
}

// dataAwareDispatcher implements the paper's suggested improvement: "a
// more data-aware scheduler could potentially improve workflow
// performance by increasing cache hits and further reducing transfers."
// An idle slot prefers the ready job with the most input bytes already
// resident on its node.
type dataAwareDispatcher struct {
	e       *sim.Engine
	sys     storage.System
	ready   []*workflow.Task
	waiters []*slotWaiter
	closed  bool
}

type slotWaiter struct {
	p    *sim.Proc
	node *cluster.Node
	got  *workflow.Task
	done bool
}

func newDataAwareDispatcher(e *sim.Engine, sys storage.System) *dataAwareDispatcher {
	return &dataAwareDispatcher{e: e, sys: sys}
}

// localBytes scores how many input bytes of t are already on node.
func (d *dataAwareDispatcher) localBytes(node *cluster.Node, t *workflow.Task) float64 {
	loc, hasLoc := d.sys.(Locator)
	nc, hasNC := d.sys.(NodeCacher)
	if !hasLoc && !hasNC {
		return 0
	}
	total := 0.0
	for _, f := range t.Inputs {
		if hasLoc && loc.Owner(f) == node {
			total += f.Size
		} else if hasNC && nc.CachedOn(node, f) {
			total += f.Size
		}
	}
	return total
}

func (d *dataAwareDispatcher) submit(t *workflow.Task) {
	if len(d.waiters) > 0 {
		// Give the task to the waiting slot that values it most.
		best, bestScore := 0, -1.0
		for i, w := range d.waiters {
			if s := d.localBytes(w.node, t); s > bestScore {
				best, bestScore = i, s
			}
		}
		w := d.waiters[best]
		d.waiters = append(d.waiters[:best], d.waiters[best+1:]...)
		w.got, w.done = t, true
		w.p.Resume()
		return
	}
	d.ready = append(d.ready, t)
}

func (d *dataAwareDispatcher) request(p *sim.Proc, node *cluster.Node) *workflow.Task {
	for {
		if len(d.ready) > 0 {
			best, bestScore := 0, -1.0
			for i, t := range d.ready {
				if s := d.localBytes(node, t); s > bestScore {
					best, bestScore = i, s
				}
			}
			t := d.ready[best]
			d.ready = append(d.ready[:best], d.ready[best+1:]...)
			return t
		}
		if d.closed {
			return nil
		}
		w := &slotWaiter{p: p, node: node}
		d.waiters = append(d.waiters, w)
		p.Suspend()
		if w.done {
			return w.got
		}
		// Woken by close: loop to drain any stragglers.
	}
}

func (d *dataAwareDispatcher) close() {
	d.closed = true
	for _, w := range d.waiters {
		w.p.Resume()
	}
	d.waiters = nil
}
