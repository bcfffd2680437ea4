package flow

import (
	"testing"

	"ec2wfsim/internal/sim"
)

// Steady-state transfer churn — blocking transfers and batched fan-outs
// starting and completing continuously — must not allocate: transfer
// records, batches (a blocking transfer is a one-shard batch), window
// caps, solver scratch and sim event records all recycle through free
// lists. This is the allocation regression rail for the solver's hot
// path. Kept serial: AllocsPerRun counts are polluted by concurrent tests
// allocating on the same heap.
func TestSteadyStateChurnAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	// The subtest is named after the solver's version label, v1, so the
	// test ID is stable across solver changes.
	t.Run("v1", func(t *testing.T) {
		e := sim.NewEngine()
		n := NewNet(e)
		server := NewResource("server", 100)
		disks := []*Resource{NewResource("d0", 80), NewResource("d1", 120)}
		// Blocking-transfer clients contending on a shared server resource.
		for i := 0; i < 3; i++ {
			nic := NewResource("nic", 300)
			e.GoDaemon("client", func(p *sim.Proc) {
				rs := []*Resource{server, nic}
				for {
					n.Transfer(p, 1500, rs...)
				}
			})
		}
		// A capped transfer client (pooled private cap per call).
		e.GoDaemon("capped", func(p *sim.Proc) {
			for {
				c := n.AcquireCap("flowcap", 45)
				n.Transfer(p, 900, c, server)
				n.ReleaseCap(c)
			}
		})
		// A striped fan-out client (batch + pooled window cap per call).
		e.GoDaemon("striper", func(p *sim.Proc) {
			for {
				win := n.AcquireCap("win", 60)
				b := n.NewBatch()
				b.Add(400, win, disks[0])
				b.Add(400, win, disks[1])
				b.Run(p)
				n.ReleaseCap(win)
			}
		})
		// Warm the free lists and slice capacities to their steady state.
		e.RunUntil(5000)
		allocs := testing.AllocsPerRun(50, func() {
			e.RunUntil(e.Now() + 200)
		})
		if allocs > 0 {
			t.Errorf("steady-state churn allocated %.2f objects per 200s window, want 0", allocs)
		}
	})
}
