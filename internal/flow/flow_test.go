package flow

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ec2wfsim/internal/sim"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestSingleTransferExactTime(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("link", 100) // 100 B/s
	var done float64
	e.Go("t", func(p *sim.Proc) {
		n.Transfer(p, 1000, r)
		done = p.Now()
	})
	e.Run()
	approx(t, done, 10, 1e-9, "1000 B over 100 B/s")
}

func TestZeroSizeTransferInstant(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("link", 100)
	var done float64 = -1
	e.Go("t", func(p *sim.Proc) {
		n.Transfer(p, 0, r)
		done = p.Now()
	})
	e.Run()
	if done != 0 {
		t.Errorf("zero-size transfer completed at %g, want 0", done)
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("link", 100)
	var t1, t2 float64
	e.Go("a", func(p *sim.Proc) {
		n.Transfer(p, 1000, r)
		t1 = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		n.Transfer(p, 1000, r)
		t2 = p.Now()
	})
	e.Run()
	// Both share 50 B/s throughout: each takes 20s.
	approx(t, t1, 20, 1e-9, "flow a")
	approx(t, t2, 20, 1e-9, "flow b")
}

func TestShortFlowReleasesCapacity(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("link", 100)
	var tShort, tLong float64
	e.Go("long", func(p *sim.Proc) {
		n.Transfer(p, 1500, r)
		tLong = p.Now()
	})
	e.Go("short", func(p *sim.Proc) {
		n.Transfer(p, 500, r)
		tShort = p.Now()
	})
	e.Run()
	// Shared 50/50 until short finishes at t=10 (500B at 50 B/s); long then
	// has 1000B left at 100 B/s: finishes at t=20.
	approx(t, tShort, 10, 1e-9, "short flow")
	approx(t, tLong, 20, 1e-9, "long flow")
}

func TestLateArrivalPreemptsFairShare(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("link", 100)
	var tA, tB float64
	e.Go("a", func(p *sim.Proc) {
		n.Transfer(p, 1000, r) // alone for 5s: 500 done; then shares
		tA = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		p.Sleep(5)
		n.Transfer(p, 1000, r)
		tB = p.Now()
	})
	e.Run()
	// t=5: a has 500 left. Share 50/50: a finishes at 5+10=15. b then has
	// 500 left at full rate: 15+5=20.
	approx(t, tA, 15, 1e-9, "flow a")
	approx(t, tB, 20, 1e-9, "flow b")
}

func TestMultiResourceBottleneck(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	fast := NewResource("nic", 1000)
	slow := NewResource("disk", 10)
	var done float64
	e.Go("t", func(p *sim.Proc) {
		n.Transfer(p, 100, fast, slow)
		done = p.Now()
	})
	e.Run()
	approx(t, done, 10, 1e-9, "bottlenecked by slow resource")
}

func TestWaterFillingUnevenDemands(t *testing.T) {
	// Two flows cross a shared backbone of 100; flow A additionally
	// crosses a private link of 30. Max-min: A gets 30, B gets 70.
	e := sim.NewEngine()
	n := NewNet(e)
	backbone := NewResource("backbone", 100)
	private := NewResource("private", 30)
	var tA, tB float64
	e.Go("a", func(p *sim.Proc) {
		n.Transfer(p, 300, backbone, private)
		tA = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		n.Transfer(p, 700, backbone)
		tB = p.Now()
	})
	e.Run()
	// A: 300/30 = 10s. B: 700/70 = 10s. Both end exactly at 10.
	approx(t, tA, 10, 1e-9, "capped flow")
	approx(t, tB, 10, 1e-9, "wide flow")
}

func TestTransferCapped(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("nic", 1000)
	var done float64
	e.Go("t", func(p *sim.Proc) {
		c := n.AcquireCap("flowcap", 10)
		n.Transfer(p, 100, c, r)
		n.ReleaseCap(c)
		done = p.Now()
	})
	e.Run()
	approx(t, done, 10, 1e-9, "per-flow cap honored")
}

func TestDuplicateResourceNotDoubleCounted(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("link", 100)
	var done float64
	e.Go("t", func(p *sim.Proc) {
		n.Transfer(p, 1000, r, r) // same resource listed twice
		done = p.Now()
	})
	e.Run()
	approx(t, done, 10, 1e-9, "dedup keeps full rate")
}

func TestSetResourceCapacityMidFlight(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("disk", 10) // first-write rate
	var done float64
	e.Go("t", func(p *sim.Proc) {
		n.Transfer(p, 200, r)
		done = p.Now()
	})
	e.At(10, func() { n.SetResourceCapacity(r, 30) }) // disk "initialized"
	e.Run()
	// 100 B in the first 10 s, remaining 100 B at 30 B/s = 3.33s more.
	approx(t, done, 10+100.0/30, 1e-9, "capacity change mid-flight")
}

func TestNClientsOneServerScalesLinearly(t *testing.T) {
	// The core contention effect behind the paper's NFS results: n clients
	// each pulling S bytes through one server NIC take n*S/C total.
	for _, clients := range []int{1, 2, 4, 8} {
		e := sim.NewEngine()
		n := NewNet(e)
		server := NewResource("server-nic", 100)
		var last float64
		for i := 0; i < clients; i++ {
			nic := NewResource("client-nic", 1000)
			e.Go("c", func(p *sim.Proc) {
				n.Transfer(p, 1000, server, nic)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		want := float64(clients) * 10
		approx(t, last, want, 1e-6, "server-bound makespan")
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("link", 100)
	for i := 0; i < 3; i++ {
		e.Go("t", func(p *sim.Proc) { n.Transfer(p, 50, r) })
	}
	e.Run()
	if n.TotalTransfers != 3 {
		t.Errorf("TotalTransfers = %d, want 3", n.TotalTransfers)
	}
	approx(t, n.TotalBytes, 150, 1e-9, "TotalBytes")
	if n.Active() != 0 {
		t.Errorf("Active() = %d, want 0 after drain", n.Active())
	}
}

// Regression: after the last transfer completes, every resource it
// crossed must report zero load (the drain path used to run an empty
// reallocation that never touched the stale allocations).
func TestDrainedNetworkLoadZero(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r1 := NewResource("link1", 100)
	r2 := NewResource("link2", 200)
	e.Go("t", func(p *sim.Proc) { n.Transfer(p, 1000, r1, r2) })
	e.Run()
	if n.Active() != 0 {
		t.Fatalf("Active() = %d after drain", n.Active())
	}
	for _, r := range []*Resource{r1, r2} {
		if r.Load() != 0 {
			t.Errorf("%s: Load() = %g on drained network, want 0", r.Name(), r.Load())
		}
		if r.Utilization() != 0 {
			t.Errorf("%s: Utilization() = %g on drained network, want 0", r.Name(), r.Utilization())
		}
	}
}

// Regression: a resource whose flows all finish while OTHER transfers
// stay active must also drop to zero load — reallocate only visits the
// surviving flows' resources, so the completion path has to clear it.
func TestPartiallyDrainedResourceLoadZero(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	shortRes := NewResource("short-link", 100)
	longRes := NewResource("long-link", 100)
	var loadAtCheck float64 = -1
	e.Go("short", func(p *sim.Proc) { n.Transfer(p, 500, shortRes) }) // done at t=5
	e.Go("long", func(p *sim.Proc) { n.Transfer(p, 2000, longRes) })  // done at t=20
	e.At(10, func() { loadAtCheck = shortRes.Load() })
	e.Run()
	if loadAtCheck != 0 {
		t.Errorf("short-link Load() = %g while long transfer still active, want 0", loadAtCheck)
	}
}

// Regression: shrinking the capacity of an idle resource must not leave
// Utilization() above 1 (stale load with fresh capacity).
func TestSetResourceCapacityIdleResource(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("disk", 100)
	e.Go("t", func(p *sim.Proc) { n.Transfer(p, 1000, r) }) // drains at t=10
	e.At(15, func() { n.SetResourceCapacity(r, 5) })
	e.Run()
	if r.Load() != 0 {
		t.Errorf("idle resource Load() = %g after capacity change, want 0", r.Load())
	}
	if u := r.Utilization(); u != 0 {
		t.Errorf("idle resource Utilization() = %g after capacity shrink, want 0", u)
	}
}

func TestTransferCappedNonPositiveRatePanics(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("nic", 1000)
	e.Go("t", func(p *sim.Proc) {
		defer func() {
			v := recover()
			if v == nil {
				t.Error("expected panic for non-positive max rate")
				return
			}
			msg := fmt.Sprint(v)
			if !strings.Contains(msg, "AcquireCap") || !strings.Contains(msg, "-3") {
				t.Errorf("panic %q does not name the caller's rate", msg)
			}
		}()
		c := n.AcquireCap("flowcap", -3)
		n.Transfer(p, 100, c, r)
		n.ReleaseCap(c)
	})
	func() {
		// The sim engine re-panics process panics from Run; swallow the
		// wrapped copy, the assertion above already ran.
		defer func() { recover() }()
		e.Run()
	}()
}

func TestZeroCapacityResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-capacity resource")
		}
	}()
	NewResource("bad", 0)
}

// Property: work conservation — with F identical flows over one resource of
// capacity C, total bytes B each, the makespan is exactly F*B/C and no flow
// finishes before B*F/C (they all share equally the whole time).
func TestPropertyWorkConservation(t *testing.T) {
	f := func(nf uint8, sz uint16, c uint16) bool {
		flows := int(nf%8) + 1
		size := float64(sz%1000) + 1
		capacity := float64(c%500) + 1
		e := sim.NewEngine()
		n := NewNet(e)
		r := NewResource("link", capacity)
		ok := true
		for i := 0; i < flows; i++ {
			e.Go("t", func(p *sim.Proc) {
				n.Transfer(p, size, r)
				want := float64(flows) * size / capacity
				if math.Abs(p.Now()-want) > 1e-6*want+1e-9 {
					ok = false
				}
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: makespan is never shorter than the most loaded resource's
// total demand divided by its capacity (a lower bound that max-min
// fairness must respect), and never longer than the sum of serialized
// transfers.
func TestPropertyMakespanBounds(t *testing.T) {
	f := func(sizes []uint16, pick []uint8) bool {
		if len(sizes) == 0 || len(pick) < len(sizes) {
			return true
		}
		nFlows := len(sizes)
		if nFlows > 20 {
			nFlows = 20
		}
		e := sim.NewEngine()
		n := NewNet(e)
		res := []*Resource{
			NewResource("r0", 50),
			NewResource("r1", 80),
			NewResource("r2", 120),
		}
		demand := make([]float64, len(res))
		serial := 0.0
		for i := 0; i < nFlows; i++ {
			size := float64(sizes[i]%2000) + 1
			r := res[int(pick[i])%len(res)]
			for j, rr := range res {
				if rr == r {
					demand[j] += size
				}
			}
			serial += size / r.Capacity()
			e.Go("t", func(p *sim.Proc) { n.Transfer(p, size, r) })
		}
		e.Run()
		lower := 0.0
		for j, d := range demand {
			if lb := d / res[j].Capacity(); lb > lower {
				lower = lb
			}
		}
		makespan := e.Now()
		// Each transfer may finish up to completionEps (0.5 bytes) early;
		// with tiny flows over slow resources that slack is visible, so
		// relax the lower bound by the aggregate epsilon.
		epsSlack := float64(nFlows) * 0.5 / res[0].Capacity()
		return makespan >= lower-epsSlack-1e-6 && makespan <= serial+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A batched fan-out must behave exactly like starting each shard
// separately: two shards over separate disks, both limited by a shared
// window cap.
func TestBatchFanOutSharesWindowCap(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	d0 := NewResource("d0", 1000)
	d1 := NewResource("d1", 1000)
	var done float64
	e.Go("striper", func(p *sim.Proc) {
		win := n.AcquireCap("win", 50)
		b := n.NewBatch()
		b.Add(500, win, d0)
		b.Add(500, win, d1)
		b.Run(p)
		n.ReleaseCap(win)
		done = p.Now()
	})
	e.Run()
	// The 50 B/s window is the bottleneck: each shard gets 25 B/s,
	// 500 B each -> 20 s.
	approx(t, done, 20, 1e-9, "window-capped fan-out")
	if n.TotalTransfers != 2 || n.TotalBytes != 1000 {
		t.Errorf("stats = (%d, %g), want (2, 1000)", n.TotalTransfers, n.TotalBytes)
	}
}

// An empty batch (or one whose shards are all zero-size) completes
// instantly.
func TestBatchEmptyInstant(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("link", 100)
	var done float64 = -1
	e.Go("t", func(p *sim.Proc) {
		b := n.NewBatch()
		b.Add(0, r)
		b.Run(p)
		done = p.Now()
	})
	e.Run()
	if done != 0 {
		t.Errorf("empty batch completed at %g, want 0", done)
	}
}

// Boundary validation: negative sizes and empty resource lists are
// rejected with a typed *ArgumentError naming the call and argument.
func TestTransferArgumentErrors(t *testing.T) {
	cases := []struct {
		name     string
		call     func(n *Net, p *sim.Proc, r *Resource)
		wantCall string
		wantArg  string
	}{
		{"negative size", func(n *Net, p *sim.Proc, r *Resource) { n.Transfer(p, -5, r) }, "Transfer", "size"},
		{"no resources", func(n *Net, p *sim.Proc, r *Resource) { n.Transfer(p, 10) }, "Transfer", "resources"},
		{"nil resource", func(n *Net, p *sim.Proc, r *Resource) { n.Transfer(p, 10, nil) }, "Transfer", "resources"},
		{"batch negative", func(n *Net, p *sim.Proc, r *Resource) { n.NewBatch().Add(-2, r) }, "Batch.Add", "size"},
		{"batch no resources", func(n *Net, p *sim.Proc, r *Resource) { n.NewBatch().Add(10) }, "Batch.Add", "resources"},
		{"batch nil resource", func(n *Net, p *sim.Proc, r *Resource) { n.NewBatch().Add(10, r, nil) }, "Batch.Add", "resources"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			n := NewNet(e)
			r := NewResource("link", 100)
			e.Go("t", func(p *sim.Proc) {
				defer func() {
					ae, ok := recover().(*ArgumentError)
					if !ok {
						t.Errorf("want *ArgumentError panic, got %v", ae)
						return
					}
					if ae.Call != tc.wantCall || ae.Arg != tc.wantArg {
						t.Errorf("got (%q, %q), want (%q, %q)", ae.Call, ae.Arg, tc.wantCall, tc.wantArg)
					}
				}()
				tc.call(n, p, r)
			})
			func() {
				defer func() { recover() }() // swallow the engine's re-panic
				e.Run()
			}()
		})
	}
}

// Zero-size transfers remain a documented no-op (an empty file staged
// through a storage backend), not an error.
func TestZeroSizeNoResourcesStillInstant(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	var done float64 = -1
	e.Go("t", func(p *sim.Proc) {
		n.Transfer(p, 0)
		done = p.Now()
	})
	e.Run()
	if done != 0 {
		t.Errorf("zero-size transfer completed at %g, want 0", done)
	}
}

// AcquireCap recycles released cap resources instead of allocating.
func TestAcquireCapRecycles(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	r := NewResource("link", 100)
	e.Go("t", func(p *sim.Proc) {
		c1 := n.AcquireCap("conn", 10)
		n.Transfer(p, 100, c1, r)
		n.ReleaseCap(c1)
		c2 := n.AcquireCap("conn2", 20)
		if c2 != c1 {
			t.Error("released cap was not recycled")
		}
		if c2.Capacity() != 20 || c2.Name() != "conn2" {
			t.Errorf("recycled cap = (%q, %g), want (conn2, 20)", c2.Name(), c2.Capacity())
		}
		if c2.Load() != 0 {
			t.Errorf("recycled cap load = %g, want 0", c2.Load())
		}
		n.ReleaseCap(c2)
	})
	e.Run()
}

// Component rail: the solver re-solves every component on each event, so
// an event in one component must leave the rates of transfers in a
// disjoint component exactly as they were (their completion times stay
// exact), and a capacity change must still re-rate its own component.
func TestDisjointComponentsSolveIndependently(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	a := NewResource("a", 100)
	b := NewResource("b", 50)
	var tA, tB float64
	e.Go("a", func(p *sim.Proc) {
		n.Transfer(p, 1000, a)
		tA = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		p.Sleep(2)
		n.Transfer(p, 500, b) // starts mid-flight of a, disjoint component
		tB = p.Now()
	})
	e.At(4, func() { n.SetResourceCapacity(b, 100) })
	e.Run()
	approx(t, tA, 10, 1e-9, "component a undisturbed")
	// b: 2s idle, 2s at 50 B/s (100 B), then 400 B at 100 B/s -> t=8.
	approx(t, tB, 8, 1e-9, "component b re-solved on capacity change")
}

// ReleaseCap misuse fails loudly rather than corrupting the cap pool.
func TestReleaseCapMisusePanics(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	shared := NewResource("nic", 100)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("foreign resource", func() { n.ReleaseCap(shared) })
	c := n.AcquireCap("conn", 10)
	n.ReleaseCap(c)
	mustPanic("double release", func() { n.ReleaseCap(c) })
}
