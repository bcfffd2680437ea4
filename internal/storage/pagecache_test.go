package storage

import (
	"fmt"
	"testing"
	"testing/quick"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// newCache returns the page cache of a fresh c1.xlarge node.
func newCache(t testing.TB) (*cluster.PageCache, *cluster.Node) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := cluster.New(e, net, rng.New(7), cluster.Config{Workers: 1, WorkerType: cluster.C1XLarge()})
	if err != nil {
		t.Fatal(err)
	}
	return c.Workers[0].Cache, c.Workers[0]
}

func TestPageCacheLRUEviction(t *testing.T) {
	pc, _ := newCache(t)
	// c1.xlarge idle capacity: 7 GiB - 512 MiB reserve ~= 6.98 GB.
	a := wf("a", 3*units.GB)
	b := wf("b", 3*units.GB)
	c := wf("c", 3*units.GB)
	pc.Insert(a)
	pc.Insert(b)
	// Touch a so b becomes least recently used.
	if !pc.Lookup(a) {
		t.Fatal("a evicted prematurely")
	}
	pc.Insert(c) // must evict b, not a
	if !pc.Lookup(a) {
		t.Error("LRU evicted the recently used file")
	}
	if pc.Lookup(b) {
		t.Error("LRU kept the least recently used file")
	}
	if !pc.Lookup(c) {
		t.Error("newly inserted file missing")
	}
}

func TestPageCacheReinsertIsIdempotent(t *testing.T) {
	pc, _ := newCache(t)
	f := wf("f", units.GB)
	pc.Insert(f)
	pc.Insert(f)
	if pc.Size() != units.GB {
		t.Errorf("Size = %s after double insert, want 1 GB", units.Bytes(pc.Size()))
	}
}

func TestPageCacheCapacityTracksMemoryUse(t *testing.T) {
	pc, node := newCache(t)
	idle := pc.Capacity()
	node.Memory.TryAcquire(cluster.MemoryMB(2 * units.GiB))
	under := pc.Capacity()
	if idle-under < 1.9*units.GiB {
		t.Errorf("capacity only fell %s under 2 GiB of task memory", units.Bytes(idle-under))
	}
	node.Memory.Release(cluster.MemoryMB(2 * units.GiB))
	if pc.Capacity() != idle {
		t.Error("capacity did not recover after memory release")
	}
}

func TestPageCacheHitMissCounters(t *testing.T) {
	pc, _ := newCache(t)
	f := wf("f", units.MB)
	if pc.Lookup(f) {
		t.Error("Lookup before Insert hit, want a miss")
	}
	pc.Insert(f)
	if !pc.Lookup(f) {
		t.Error("Lookup after Insert missed, want a hit")
	}
}

// Property: the cache never holds more bytes than its capacity at the
// moment of the last operation, for arbitrary insert/lookup/pressure
// sequences.
func TestPropertyPageCacheNeverOverCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		pc, node := newCache(t)
		files := make([]*workflow.File, 16)
		for i := range files {
			files[i] = wf(fmt.Sprintf("f%d", i), float64(i+1)*300*units.MB)
		}
		held := 0
		for _, op := range ops {
			switch op % 4 {
			case 0:
				pc.Insert(files[op%16])
			case 1:
				pc.Lookup(files[op%16])
			case 2:
				mb := cluster.MemoryMB(float64(op%5) * units.GiB)
				if node.Memory.TryAcquire(mb) {
					held += mb
				}
			case 3:
				if held > 0 {
					node.Memory.Release(held)
					held = 0
				}
			}
			// trim is applied on Lookup/Insert; force one via Lookup.
			pc.Lookup(files[0])
			if pc.Size() > pc.Capacity()+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNFSDirtyThrottleDegradesToDiskSpeed(t *testing.T) {
	// Flood the server with async writes far beyond its dirty limit: the
	// later writes must slow from NIC speed toward disk speed.
	r := newRig(t, NewNFS(), 1)
	var first, worst float64
	r.e.Go("writer", func(p *sim.Proc) {
		start := p.Now()
		r.sys.Write(p, r.c.Workers[0], wf("w0", units.GB))
		first = p.Now() - start
		// The m1.xlarge dirty limit is 0.4*16 GiB ~= 6.9 GB and the
		// flusher drains at the disk's 80 MB/s against the 120 MB/s NIC
		// fill, so a sustained flood crosses the limit and the buffer then
		// self-regulates: over-limit writes divert to the disk-bound path
		// (which adds no dirty data) until the flusher catches up. The
		// observable symptom is occasional writes far slower than NIC
		// speed.
		for i := 1; i <= 40; i++ {
			start := p.Now()
			r.sys.Write(p, r.c.Workers[0], wf(fmt.Sprintf("w%d", i), units.GB))
			if took := p.Now() - start; took > worst {
				worst = took
			}
		}
	})
	r.e.Run()
	if worst <= first*1.5 {
		t.Errorf("no write was throttled during the flood: worst %.2f s vs async %.2f s", worst, first)
	}
}

func TestNFSPreStageWarmsServerCache(t *testing.T) {
	r := newRig(t, NewNFS(), 1)
	f := wf("input", 100*units.MB)
	r.sys.PreStage([]*workflow.File{f})
	r.e.Go("reader", func(p *sim.Proc) {
		r.sys.Read(p, r.c.Workers[0], f)
	})
	r.e.Run()
	st := r.sys.Stats()
	if st.ServerCacheHits != 1 || st.ServerCacheMisses != 0 {
		t.Errorf("server cache hits/misses = %d/%d, want 1/0 after pre-staging",
			st.ServerCacheHits, st.ServerCacheMisses)
	}
}

// TestNFSServerRewriteKeepsRecency: rewriting a file the server already
// caches leaves its LRU position alone; only reads refresh recency on
// the server. The m1.xlarge server caches 16 GiB - 1 GiB (about 16.1 GB).
// a and b are pre-staged in that order, so a is least recently used;
// rewriting a must not save it from the eviction that writing c forces.
func TestNFSServerRewriteKeepsRecency(t *testing.T) {
	r := newRig(t, NewNFS(), 1)
	node := r.c.Workers[0]
	a, b, c := wf("a", 7*units.GB), wf("b", 7*units.GB), wf("c", 3*units.GB)
	r.sys.PreStage([]*workflow.File{a, b})
	r.e.Go("writer", func(p *sim.Proc) {
		r.sys.Write(p, node, a)
		r.sys.Write(p, node, c)
		// 7 GB does not fit the worker's page cache, so this read goes
		// to the server.
		r.sys.Read(p, node, a)
	})
	r.e.Run()
	if misses := r.sys.Stats().ServerCacheMisses; misses != 1 {
		t.Errorf("server cache misses = %d, want 1: the rewrite of a refreshed its recency", misses)
	}
}
