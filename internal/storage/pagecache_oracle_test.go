package storage

import (
	"container/list"
	"fmt"
	"math"
	"testing"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// oracleCache is the page cache as it was before its entries moved into
// the cluster's slab: a map from file to list element, and a
// container/list in recency order. FuzzPageCache holds cluster.PageCache
// to its answers, the way internal/flow's oracle holds the solver.
type oracleCache struct {
	node    *cluster.Node
	reserve float64
	entries map[*workflow.File]*list.Element
	lru     *list.List // front = most recently used
	size    float64
}

func newOracleCache(node *cluster.Node, reserve float64) *oracleCache {
	return &oracleCache{
		node:    node,
		reserve: reserve,
		entries: make(map[*workflow.File]*list.Element),
		lru:     list.New(),
	}
}

func (c *oracleCache) Drop() {
	c.entries = make(map[*workflow.File]*list.Element)
	c.lru.Init()
	c.size = 0
}

func (c *oracleCache) Capacity() float64 {
	cap := c.node.Type.Memory - c.reserve - float64(c.node.Memory.InUse())*units.MB
	if cap < 0 {
		return 0
	}
	return cap
}

func (c *oracleCache) Contains(f *workflow.File) bool {
	_, ok := c.entries[f]
	return ok
}

func (c *oracleCache) trim() {
	cap := c.Capacity()
	for c.size > cap {
		back := c.lru.Back()
		if back == nil {
			break
		}
		f := back.Value.(*workflow.File)
		c.lru.Remove(back)
		delete(c.entries, f)
		c.size -= f.Size
	}
}

func (c *oracleCache) Lookup(f *workflow.File) bool {
	c.trim()
	if el, ok := c.entries[f]; ok {
		c.lru.MoveToFront(el)
		return true
	}
	return false
}

func (c *oracleCache) Insert(f *workflow.File) {
	if _, ok := c.entries[f]; ok {
		c.lru.MoveToFront(c.entries[f])
		return
	}
	cap := c.Capacity()
	if f.Size > cap {
		return
	}
	c.size += f.Size
	c.entries[f] = c.lru.PushFront(f)
	c.trim()
}

// cacheFiles interns n files with sizes drawn from seed, from nothing to
// past a worker's RAM, plus two task files past the workflow's own, as a
// run's checkpoints are.
func cacheFiles(t *testing.T, seed uint64, n int) []*workflow.File {
	t.Helper()
	r := rng.New(seed)
	w := workflow.New("cache")
	var files []*workflow.File
	for i := 0; i < n; i++ {
		// Fractional sizes make the running Size() sums round, so a
		// different eviction order shows in the bits.
		size := r.Float64() * 3.3 * units.GB
		if i%7 == 6 {
			size = 9 * units.GB // larger than any worker's cache
		}
		f := w.File(fmt.Sprintf("f%d", i), size)
		w.AddTask(&workflow.Task{ID: fmt.Sprintf("t%d", i), Outputs: []*workflow.File{f}})
		files = append(files, f)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, task := range w.Tasks[:2] {
		files = append(files, w.TaskFile(task, "ckpt/"+task.ID, r.Float64()*units.GB))
	}
	return files
}

// FuzzPageCache runs random Insert, Lookup, Contains and Drop calls, and
// memory acquisitions and releases, on the page caches of one cluster
// (three workers and an NFS-style server with a 1 GiB reserve), against
// one oracle per node. After every step each cache must give its
// oracle's Contains answer for every file and a bit-identical Size().
// Each op is a byte triple: the operation, the node and the file.
func FuzzPageCache(f *testing.F) {
	// Recency: a Lookup hit and an Insert of a cached file both refresh
	// the file, which later evictions show.
	f.Add(uint64(182), []byte("000001002100007"))
	f.Add(uint64(0), []byte("000001000009"))
	// Two nodes cache file 0; dropping both in turn, while node 2 keeps
	// the store alive, must leave file 0's chain empty, so the slab entry
	// the next insert reuses does not show up in it.
	f.Add(uint64(1), []byte{0, 2, 2, 0, 0, 0, 0, 1, 0, 3, 1, 0, 3, 0, 0, 0, 0, 1})
	f.Add(uint64(1), []byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 1, 0, 0, 0, 0, 3})
	f.Add(uint64(7), []byte{0, 1, 4, 0, 1, 5, 4, 1, 0, 1, 1, 4, 0, 1, 6, 5, 1, 0, 2, 1, 5})
	f.Add(uint64(42), []byte{0, 3, 0, 0, 3, 1, 0, 3, 2, 0, 0, 0, 3, 3, 0, 3, 0, 0, 0, 3, 9, 1, 3, 9})
	f.Add(uint64(9), []byte{0, 2, 10, 0, 2, 11, 0, 0, 10, 4, 2, 3, 1, 2, 10, 5, 2, 0, 3, 0, 0, 3, 1, 0, 3, 2, 0, 3, 3, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		e := sim.NewEngine()
		c, err := cluster.New(e, flow.NewNet(e), rng.New(seed), cluster.Config{
			Workers: 3, WorkerType: cluster.C1XLarge(), Extra: []cluster.InstanceType{cluster.M1XLarge()},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes := c.AllNodes()
		oracles := make([]*oracleCache, len(nodes))
		for i, n := range nodes {
			// A worker keeps the kernel's 512 MiB; the server is set up
			// as NFS.Init sets up its own.
			oracles[i] = newOracleCache(n, 512*units.MiB)
		}
		server := len(nodes) - 1
		nodes[server].Cache.SetReserve(nfsServerReserve)
		oracles[server].reserve = nfsServerReserve
		files := cacheFiles(t, seed, 10)
		held := make([]int, len(nodes))
		for i := 0; i+2 < len(ops) && i < 3*200; i += 3 {
			ni := int(ops[i+1]) % len(nodes)
			n, o := nodes[ni], oracles[ni]
			file := files[int(ops[i+2])%len(files)]
			switch ops[i] % 6 {
			case 0:
				n.Cache.Insert(file)
				o.Insert(file)
			case 1:
				if got, want := n.Cache.Lookup(file), o.Lookup(file); got != want {
					t.Fatalf("op %d: %s Lookup(%s) = %v, oracle %v", i/3, n.Name, file.Name, got, want)
				}
			case 2:
				// Contains is compared for every file below.
			case 3:
				n.Cache.Drop()
				o.Drop()
			case 4:
				mb := cluster.MemoryMB(float64(ops[i+2]%7) * units.GiB)
				if n.Memory.TryAcquire(mb) {
					held[ni] += mb
				}
			case 5:
				n.Memory.Release(held[ni])
				held[ni] = 0
			}
			for j, n := range nodes {
				o := oracles[j]
				if got, want := n.Cache.Size(), o.size; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d: %s Size() = %v, oracle %v", i/3, n.Name, got, want)
				}
				for _, f := range files {
					if got, want := n.Cache.Contains(f), o.Contains(f); got != want {
						t.Fatalf("op %d: %s Contains(%s) = %v, oracle %v", i/3, n.Name, f.Name, got, want)
					}
				}
			}
		}
	})
}
