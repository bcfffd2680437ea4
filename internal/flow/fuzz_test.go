package flow

import (
	"fmt"
	"testing"

	"ec2wfsim/internal/sim"
)

// FuzzReallocate is the solver's correctness rail: it decodes a random
// event script (blocking transfers, batched fan-outs with pooled window
// caps, capacity changes, load probes, all at fuzzed times over a fuzzed
// resource set) and drives it through the from-scratch oracle preserved
// in oracle_test.go and the shipping solver. The two must agree bit
// for bit: every completion timestamp, every probed load, the final clock
// and the byte totals — the same discipline the golden file enforces at
// paper scale. Between ops, and once the run drains, the solver's graph
// bookkeeping is checked directly (checkGraph).

// script is one decoded fuzz scenario.
type script struct {
	caps []float64 // initial resource capacities
	ops  []scriptOp
}

type scriptOp struct {
	at   float64
	kind byte // 0 blocking transfer, 1 fan-out batch, 2 set capacity, 3 probe

	size   float64 // transfer: total size; fan-out: per-shard size
	res    []int   // transfer: resource indices
	shards [][]int // fan-out: per-shard resource indices
	capRt  float64 // fan-out: window cap rate (0 = none)

	capIdx int     // set capacity: resource index
	capVal float64 // set capacity: new capacity
}

// decodeScript turns fuzz bytes into a bounded, always-valid scenario.
func decodeScript(data []byte) *script {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	// Capacities are fractions n/d, not integers. Integer capacities
	// keep most shares exactly representable, so resolving a tie in
	// another resource order rarely changes a rounding, and a solver that
	// broke ties in the wrong order passed the seed corpus. Fractions
	// make the tie order observable.
	capacity := func() float64 { return float64(next()%500+1) / float64(next()%7+1) }
	nRes := next()%5 + 1
	s := &script{}
	for i := 0; i < nRes; i++ {
		s.caps = append(s.caps, capacity())
	}
	subset := func() []int {
		mask := next() % (1 << nRes)
		if mask == 0 {
			mask = 1
		}
		var idxs []int
		for i := 0; i < nRes; i++ {
			if mask&(1<<i) != 0 {
				idxs = append(idxs, i)
			}
		}
		return idxs
	}
	nOps := next()%32 + 1
	at := 0.0
	for i := 0; i < nOps; i++ {
		at += float64(next()%64) / 8 // gaps of 0..7.875s; 0 keeps same-time races
		op := scriptOp{at: at, kind: byte(next() % 4)}
		switch op.kind {
		case 0:
			// Sizes reach down to 0.25 bytes — below completionEps — to
			// exercise the instant-completion path on both sides.
			op.size = float64(next()%4000)/4 + 0.25
			op.res = subset()
		case 1:
			op.size = float64(next()%2000)/4 + 0.25
			shards := next()%4 + 1
			for j := 0; j < shards; j++ {
				op.shards = append(op.shards, subset())
			}
			if next()%2 == 0 {
				op.capRt = float64(next()%200 + 1)
			}
		case 2:
			op.capIdx = next() % nRes
			op.capVal = capacity()
		}
		s.ops = append(s.ops, op)
	}
	return s
}

// trace is everything a run observes; runs compare traces bit-exactly.
type trace struct {
	completions []float64 // per transfer/fan-out op, completion time
	probes      []float64 // per probe op, active count then per-resource loads
	finalLoads  []float64 // per resource, committed load after the run drains
	end         float64
	totalBytes  float64
	totalCount  int64
}

// flowDriver abstracts the two implementations behind one script runner.
type flowDriver interface {
	transfer(p *sim.Proc, size float64, res []int)
	fanout(p *sim.Proc, size float64, shards [][]int, capRate float64)
	setCapacity(idx int, c float64)
	load(idx int) float64
	activeCount() int
	totals() (float64, int64)
	check() error // internal consistency; nil when there is nothing to check
}

type realDriver struct {
	n  *Net
	rs []*Resource

	// pickBuf is reused across ops: Transfer and Batch.Add copy the
	// resource list into the transfer record before returning, so the
	// scratch is dead by the time the next op runs.
	pickBuf []*Resource
}

// resNames is precomputed so the benchmark shapes do not charge a
// Sprintf per resource per iteration to both drivers' setup (a constant
// added to each mode's ns/op that dilutes their ratio). Sized for the
// largest shape (scale1000: 3000 resources); read-only after init, so
// parallel subtests share it safely.
var resNames = func() []string {
	ns := make([]string, 3072)
	for i := range ns {
		ns[i] = fmt.Sprintf("r%d", i)
	}
	return ns
}()

func resName(i int) string {
	if i < len(resNames) {
		return resNames[i]
	}
	return fmt.Sprintf("r%d", i)
}

func newRealDriver(e *sim.Engine, caps []float64) *realDriver {
	d := &realDriver{n: NewNet(e), rs: make([]*Resource, 0, len(caps))}
	for i, c := range caps {
		d.rs = append(d.rs, NewResource(resName(i), c))
	}
	return d
}

func (d *realDriver) pick(base []*Resource, idxs []int) []*Resource {
	for _, idx := range idxs {
		base = append(base, d.rs[idx])
	}
	return base
}

func (d *realDriver) transfer(p *sim.Proc, size float64, res []int) {
	d.pickBuf = d.pick(d.pickBuf[:0], res)
	d.n.Transfer(p, size, d.pickBuf...)
}

func (d *realDriver) fanout(p *sim.Proc, size float64, shards [][]int, capRate float64) {
	var cap *Resource
	if capRate > 0 {
		cap = d.n.AcquireCap("win", capRate)
	}
	b := d.n.NewBatch()
	for _, sh := range shards {
		rs := d.pickBuf[:0]
		if cap != nil {
			rs = append(rs, cap)
		}
		rs = d.pick(rs, sh)
		d.pickBuf = rs
		b.Add(size, rs...)
	}
	b.Run(p)
	if cap != nil {
		d.n.ReleaseCap(cap)
	}
}

func (d *realDriver) setCapacity(idx int, c float64) { d.n.SetResourceCapacity(d.rs[idx], c) }

func (d *realDriver) load(idx int) float64     { return d.rs[idx].Load() }
func (d *realDriver) activeCount() int         { return d.n.Active() }
func (d *realDriver) totals() (float64, int64) { return d.n.TotalBytes, d.n.TotalTransfers }
func (d *realDriver) check() error             { return checkGraph(d.n, d.rs) }

// checkGraph verifies the bookkeeping attach and detach keep for the
// solver: the live set holds exactly the resources with active members,
// each once and at its recorded index, and is empty once the network
// drains; every member list is in strictly increasing start order, which
// the solver's tie rule reads; and the member lists together hold
// exactly the active transfers. rs are resources the caller knows about
// (window caps are reached through the active transfers instead); each
// must be live exactly when it has members.
func checkGraph(n *Net, rs []*Resource) error {
	if n.Active() == 0 && len(n.live) != 0 {
		return fmt.Errorf("no active transfers, but %d resources are still live", len(n.live))
	}
	isLive := func(r *Resource) bool {
		return r.liveIdx >= 0 && r.liveIdx < len(n.live) && n.live[r.liveIdx] == r
	}
	active := make(map[*transfer]bool, len(n.active))
	for _, t := range n.active {
		active[t] = true
		for _, r := range t.resources {
			if !isLive(r) {
				return fmt.Errorf("resource %s crossed by an active transfer is not live", r.name)
			}
		}
	}
	members := make(map[*transfer]bool, len(n.active))
	for i, r := range n.live {
		if r.liveIdx != i {
			return fmt.Errorf("live[%d] = %s records index %d", i, r.name, r.liveIdx)
		}
		if len(r.members) == 0 {
			return fmt.Errorf("live resource %s has no members", r.name)
		}
		for j, t := range r.members {
			if j > 0 && t.seq <= r.members[j-1].seq {
				return fmt.Errorf("members of %s out of start order at %d: seq %d after %d",
					r.name, j, t.seq, r.members[j-1].seq)
			}
			if !active[t] {
				return fmt.Errorf("member %d of %s is not an active transfer", j, r.name)
			}
			members[t] = true
		}
	}
	if len(members) != n.Active() {
		return fmt.Errorf("member lists hold %d distinct transfers, Active() = %d", len(members), n.Active())
	}
	for _, r := range rs {
		if isLive(r) != (len(r.members) > 0) {
			return fmt.Errorf("resource %s: live %v with %d members", r.name, isLive(r), len(r.members))
		}
	}
	return nil
}

// runScript schedules the whole scenario up front (so both runs assign
// identical event sequence numbers to the script skeleton) and executes
// it to completion. It runs the implementation's consistency check after
// every op and after the run drains, and panics at the first failure: a
// corrupted graph would otherwise crash the solver later, far from its
// cause.
func runScript(s *script, build func(e *sim.Engine, caps []float64) flowDriver) *trace {
	e := sim.NewEngine()
	d := build(e, s.caps)
	tr := &trace{completions: make([]float64, len(s.ops))}
	for i := range tr.completions {
		tr.completions[i] = -1
	}
	check := func(i int) {
		if err := d.check(); err != nil {
			panic(fmt.Sprintf("solver bookkeeping after op %d %+v: %v", i, s.ops[i], err))
		}
	}
	for i, op := range s.ops {
		i, op := i, op
		switch op.kind {
		case 0:
			e.At(op.at, func() {
				e.Go("t", func(p *sim.Proc) {
					d.transfer(p, op.size, op.res)
					tr.completions[i] = p.Now()
					check(i)
				})
			})
		case 1:
			e.At(op.at, func() {
				e.Go("f", func(p *sim.Proc) {
					d.fanout(p, op.size, op.shards, op.capRt)
					tr.completions[i] = p.Now()
					check(i)
				})
			})
		case 2:
			e.At(op.at, func() {
				d.setCapacity(op.capIdx, op.capVal)
				check(i)
			})
		case 3:
			e.At(op.at, func() {
				tr.probes = append(tr.probes, float64(d.activeCount()))
				for idx := range s.caps {
					tr.probes = append(tr.probes, d.load(idx))
				}
				check(i)
			})
		}
	}
	e.Run()
	if err := d.check(); err != nil {
		panic(fmt.Sprintf("solver bookkeeping after the run drained: %v", err))
	}
	tr.end = e.Now()
	tr.totalBytes, tr.totalCount = d.totals()
	for idx := range s.caps {
		tr.finalLoads = append(tr.finalLoads, d.load(idx))
	}
	return tr
}

func FuzzReallocate(f *testing.F) {
	f.Add([]byte{3, 10, 200, 50, 8, 0, 0, 1, 3, 0, 1, 2, 7, 100, 4, 2, 0, 40, 0, 3})
	f.Add([]byte{2, 90, 90, 6, 0, 1, 80, 3, 3, 3, 1, 0, 2, 1, 7, 0, 3})
	f.Add([]byte{5, 5, 255, 120, 60, 30, 12, 8, 1, 200, 2, 31, 31, 1, 99, 0, 0, 1, 3, 3, 2, 4, 250})
	f.Add([]byte{1, 1, 4, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0})
	// Equal bottleneck shares on resources first seen in different
	// orders: a solver that broke the tie by any other resource order
	// diverges from the oracle at op 2.
	f.Add([]byte("00000717Y007A088A1\xc5199170b820090"))
	// One transfer across two equal resources: a tie between resources
	// that share their first member.
	f.Add([]byte{1, 99, 0, 99, 0, 0, 0, 0, 40, 3})
	// Two transfers on separate resources; the first to start finishes
	// first, so its resource leaves the live set by a swap-remove that
	// moves the other one.
	f.Add([]byte{1, 99, 0, 99, 0, 1, 0, 0, 40, 1, 0, 0, 200, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeScript(data)
		want := runScript(s, func(e *sim.Engine, caps []float64) flowDriver { return newOracleDriver(e, caps) })
		got := runScript(s, func(e *sim.Engine, caps []float64) flowDriver { return newRealDriver(e, caps) })
		compareExact(t, "solver", got, want, s)
	})
}

// compareExact is the solver contract: bit-identical to the oracle.
func compareExact(t *testing.T, label string, got, want *trace, s *script) {
	t.Helper()
	if got.end != want.end {
		t.Fatalf("makespan diverged: %s %v, oracle %v", label, got.end, want.end)
	}
	if got.totalBytes != want.totalBytes || got.totalCount != want.totalCount {
		t.Fatalf("totals diverged: %s (%v, %d), oracle (%v, %d)",
			label, got.totalBytes, got.totalCount, want.totalBytes, want.totalCount)
	}
	for i := range got.completions {
		if got.completions[i] != want.completions[i] {
			t.Fatalf("op %d completion diverged: %s %v, oracle %v (script %+v)",
				i, label, got.completions[i], want.completions[i], s.ops[i])
		}
	}
	if len(got.probes) != len(want.probes) {
		t.Fatalf("probe count diverged: %d vs %d", len(got.probes), len(want.probes))
	}
	for i := range got.probes {
		if got.probes[i] != want.probes[i] {
			t.Fatalf("probe %d diverged: %s %v, oracle %v", i, label, got.probes[i], want.probes[i])
		}
	}
	for i := range got.finalLoads {
		if got.finalLoads[i] != want.finalLoads[i] {
			t.Fatalf("final load of r%d diverged: %s %v, oracle %v", i, label, got.finalLoads[i], want.finalLoads[i])
		}
	}
}
