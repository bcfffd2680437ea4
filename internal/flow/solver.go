package flow

// solver re-solves max-min fair rates over every active transfer on each
// event (transfer start/finish, capacity change, timer drain). It runs
// the from-scratch pass the oracle in the test tree preserves, over
// persistent membership lists. It starts from the network's live
// resources (those with at least one active member, kept by attach and
// detach) instead of walking every flow–resource link to find and count
// them. It takes each flow's completion ETA as it fixes the flow's rate
// and returns the earliest, so no second walk over the flows is needed.
//
// Every float operation, and so every simulated timestamp, is
// bit-identical to the oracle's. Resets are per resource and need no
// order. Each round fixes the bottleneck's unfixed members in start order
// and accumulates loads in that fix order. The earliest completion is a
// minimum, so visit order cannot change it. The one order the oracle's
// arithmetic depends on is the tie between equal bottleneck shares: its
// resource list is in first-seen order (flows in start order, each flow's
// resources in list order), and its strict "<" keeps the earliest. The
// live list is in no particular order, so the scan replays that rule
// explicitly on exact ties (seenBefore).
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
// The resource list is scratch reused across events, and fixed marks are
// epoch stamps on the transfers, so the steady state allocates nothing.
type solver struct {
	// epoch is the fix-mark generation; it advances once per solve and
	// never wraps in practice (int64 at one bump per simulation event).
	epoch int64

	// res is reusable scratch: a copy of the live resources, compacted
	// as rounds exhaust them.
	res []*Resource
}

// solve recomputes the max-min fair rate of every transfer in active,
// which must be the full active list, and the committed load of every
// live resource, which must be exactly the resources those transfers
// cross. It returns the delay until the earliest completion, 0 if a
// transfer is already within completionEps of done, or -1 if every
// transfer is starved. Idle resources are not visited: callers zero the
// load of any resource they leave idle.
func (s *solver) solve(active []*transfer, live []*Resource) float64 {
	s.epoch++
	ep := s.epoch
	res := append(s.res[:0], live...)
	for _, r := range res {
		r.residual = r.capacity
		r.count = len(r.members)
		r.load = 0
	}
	// Progressive filling. Each round walks only the bottleneck's own
	// membership list, and resources with no unfixed flows left are
	// compacted out.
	next := -1.0
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
			if bottleneck == nil || share < bestShare || share == bestShare && seenBefore(r, bottleneck) {
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
			if t.fixed == ep {
				continue
			}
			t.rate = bestShare
			t.fixed = ep
			unfixed--
			for _, r := range t.resources {
				r.residual -= bestShare
				if r.residual < 0 {
					r.residual = 0
				}
				r.count--
				r.load += bestShare
			}
			// A starved flow (rate 0) waits for another completion to
			// free capacity, so it has no ETA of its own.
			if t.remaining <= completionEps {
				next = 0
			} else if bestShare > 0 {
				if eta := t.remaining / bestShare; next < 0 || eta < next {
					next = eta
				}
			}
		}
	}
	s.res = res[:0]
	return next
}

// seenBefore reports whether r comes before b in first-seen order: the
// order in which a walk over the active transfers in start order, and
// over each transfer's resources in list order, first reaches them. A
// resource is first reached through its first member (members are in
// start order), so the earlier first member wins, and two resources
// sharing a first member follow that member's resource list. Both must
// be live.
func seenBefore(r, b *Resource) bool {
	fr, fb := r.members[0], b.members[0]
	if fr != fb {
		return fr.seq < fb.seq
	}
	rs := fr.resources
	i := 0
	for rs[i] != r && rs[i] != b {
		i++
	}
	return rs[i] == r
}
