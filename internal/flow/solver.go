package flow

// solver re-solves max-min fair rates over every active transfer on each
// event (transfer start/finish, capacity change, timer drain). It is the
// from-scratch pass the oracle in the test tree preserves, run over the
// persistent transfer↔resource graph: flows are visited in active (start)
// order, resources are reset in first-seen order, bottleneck ties break to
// the earlier resource, and loads accumulate in fix order. Each resource's
// members list is already that resource's flows in start order, so nothing
// is rebuilt per solve, and every simulated timestamp is bit-identical to
// the oracle's.
//
// There is deliberately no search for the components an event touched:
// on the 128-worker PVFS cells 99% of solves cover every active flow
// anyway (a striped read joins all servers into one component), and even
// on the 1000-node non-PVFS cells a component solve covers 43-80% of the
// active flows, so walking the graph from the touched resources costs
// more than the flows it skips (BENCH_solve.json). Solving every
// component in one pass is exact, because components share no resource:
// a round that fixes flows in one component leaves the residuals and
// counts of every other component untouched, and within a component the
// bottleneck sequence is the one a component-only solve would pick.
//
// The resource list is scratch reused across events, and reset marks are
// epoch counters on the resources, so the steady state allocates nothing.
type solver struct {
	// epoch is the reset-mark generation; it advances once per solve and
	// never wraps in practice (int64 at one bump per simulation event).
	epoch int64

	// res is reusable scratch: the active flows' resources in first-seen
	// order.
	res []*Resource
}

// solve recomputes the max-min fair rate of every transfer in active,
// which must be the full active list in start order, and the committed
// load of every resource those transfers cross. Resources no active
// transfer crosses are not visited: callers zero the load of any resource
// they leave idle.
func (s *solver) solve(active []*transfer) {
	// Reset every crossed resource in first-seen order and count its
	// flows, one increment per incidence.
	s.epoch++
	ep := s.epoch
	res := s.res[:0]
	for _, t := range active {
		t.fixed = false
		t.rate = 0
		for _, r := range t.resources {
			if r.visit != ep {
				r.visit = ep
				r.residual = r.capacity
				r.count = 0
				r.load = 0
				res = append(res, r)
			}
			r.count++
		}
	}
	// Progressive filling. Each round walks only the bottleneck's own
	// membership list, and resources with no unfixed flows left are
	// compacted out.
	unfixed := len(active)
	resources := res
	for unfixed > 0 {
		var bottleneck *Resource
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
			panic("flow: unfixed transfers with no remaining resources")
		}
		if bestShare < 0 {
			bestShare = 0
		}
		for _, t := range bottleneck.members {
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
	s.res = res[:0]
}
