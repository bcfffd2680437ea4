package cluster

import (
	"fmt"
	"testing"

	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// TestPageCacheWarmOpsAllocationFree: once the slab and the chain heads
// have grown, Lookup, Insert of a cached file and Insert of a new file
// that evicts an old one all reuse slab entries and allocate nothing.
func TestPageCacheWarmOpsAllocationFree(t *testing.T) {
	c := newTestCluster(t, 2)
	pc := c.Workers[0].Cache
	w := workflow.New("warm")
	var files []*workflow.File
	for i := 0; i < 8; i++ {
		// Eight 1.5 GB files overflow the 6.98 GB cache, so every pass
		// evicts and reinserts.
		files = append(files, w.File(fmt.Sprintf("f%d", i), 1.5*units.GB))
	}
	churn := func() {
		for _, f := range files {
			pc.Lookup(f)
			pc.Insert(f)
			pc.Insert(f)
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(100, churn); allocs > 0 {
		t.Errorf("warm page-cache churn allocated %.1f objects per pass, want 0", allocs)
	}
	if pc.Size() == 0 || pc.Size() > pc.Capacity() {
		t.Errorf("Size = %v, want a full cache within its capacity %v", pc.Size(), pc.Capacity())
	}
}

// TestDropReleasesClusterTables: the cluster's entry slab and chain
// heads are released once every cache on the cluster is empty, so a
// finished run that keeps its cluster keeps no per-file table.
func TestDropReleasesClusterTables(t *testing.T) {
	c := newTestCluster(t, 2)
	f := workflow.New("drop").File("f", units.MB)
	for _, n := range c.Workers {
		n.Cache.Insert(f)
	}
	store := c.Workers[0].Cache.store
	c.Workers[0].Cache.Drop()
	if store.slab == nil || !c.Workers[1].Cache.Contains(f) {
		t.Fatal("dropping one cache released the tables another cache still uses")
	}
	c.Workers[1].Cache.Drop()
	if store.slab != nil || store.chains != nil || store.live != 0 {
		t.Errorf("tables kept after every cache was dropped: %d slab entries, %d chains, %d live",
			len(store.slab), len(store.chains), store.live)
	}
	c.Workers[1].Cache.Insert(f)
	if !c.Workers[1].Cache.Lookup(f) || c.Workers[0].Cache.Contains(f) {
		t.Error("the cache does not work after its tables were released")
	}
}

// TestPageCachePanicsOnUninternedFile: a file no workflow interned has
// index 0, which would share one chain with every other such file.
func TestPageCachePanicsOnUninternedFile(t *testing.T) {
	c := newTestCluster(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of an un-interned file did not panic")
		}
	}()
	c.Workers[0].Cache.Insert(&workflow.File{Name: "loose", Size: units.MB})
}
