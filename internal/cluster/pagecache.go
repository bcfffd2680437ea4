package cluster

import (
	"fmt"

	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// osReserve is RAM the kernel and daemons keep away from a node's page
// cache.
const osReserve = 512 * units.MiB

// PageCache models a node's Linux page cache over workflow files: reads
// and writes populate it, and its usable capacity shrinks as running tasks
// claim anonymous memory. This dynamic capacity is what differentiates the
// applications: Montage's small tasks leave gigabytes of cache (so
// re-reads within a node are free on every file system), while Broadband's
// multi-GB tasks squeeze the cache to nothing — which is exactly why the
// paper finds that only S3's disk-backed client cache helps Broadband.
//
// Every node owns one (Node.Cache). Storage systems keep a client's reads
// and writes in the client node's cache and the NFS server's files in the
// server node's, and a node empties its cache when an outage takes it
// down.
//
// The entries of every cache on a cluster live in one cacheStore, so the
// memory they take grows with the cached (node, file) pairs, not with
// nodes times files.
type PageCache struct {
	node    *Node
	store   *cacheStore
	id      int32 // the cache's number in its store, from 1
	reserve float64
	// head and tail are the most and least recently used entries (0 when
	// the cache is empty).
	head, tail int32
	size       float64
}

// cacheStore holds the entries of a cluster's page caches in one slab.
// Each entry sits on two lists: its cache's recency list and its file's
// chain, which holds one entry per cache that has the file. A lookup
// walks the file's chain, so it costs the number of nodes caching the
// file, and needs no per-node table over every file.
type cacheStore struct {
	slab []cacheEntry // slab[0] is unused: index 0 ends every list
	free int32        // first free slab entry, linked through next
	// chains holds each file's first entry, by File.Index.
	chains []int32
	live   int   // entries in use
	caches int32 // caches numbered so far
}

// cacheEntry is one cached (node, file) pair. It holds no pointer, so
// the garbage collector neither scans the slab nor pays a write barrier
// to update it.
type cacheEntry struct {
	size  float64 // the file's size, which its eviction frees
	file  int32   // the file's index, which names its chain
	cache int32   // the id of the cache holding it
	// prev and next link the cache's recency list, from the most
	// recently used; up and down link the file's chain.
	prev, next int32
	up, down   int32
}

// newPageCache returns an empty cache over node's RAM, less reserve
// bytes that the kernel and daemons keep for themselves, with its
// entries in store.
func newPageCache(node *Node, store *cacheStore, reserve float64) *PageCache {
	store.caches++
	return &PageCache{node: node, store: store, id: store.caches, reserve: reserve}
}

// SetReserve sets the bytes of the node's RAM that the kernel and
// daemons keep away from the cache (a file server's daemons keep more
// than a worker's).
func (c *PageCache) SetReserve(bytes float64) { c.reserve = bytes }

// Drop empties the cache, as a reboot loses the node's RAM. Once every
// cache on the cluster is empty, the cluster's entry tables are released
// too.
func (c *PageCache) Drop() {
	s := c.store
	for e := c.head; e != 0; {
		next := s.slab[e].next
		s.unchain(e)
		s.release(e)
		e = next
	}
	c.head, c.tail, c.size = 0, 0, 0
	if s.live == 0 {
		s.slab, s.free, s.chains = nil, 0, nil
	}
}

// Capacity returns the bytes currently available to the cache: total RAM
// minus the reserve and the resident memory of running tasks.
func (c *PageCache) Capacity() float64 {
	cap := c.node.Type.Memory - c.reserve - float64(c.node.Memory.InUse())*units.MB
	if cap < 0 {
		return 0
	}
	return cap
}

// Size returns the bytes currently cached.
func (c *PageCache) Size() float64 { return c.size }

// Contains reports whether f is cached, without refreshing recency.
func (c *PageCache) Contains(f *workflow.File) bool { return c.find(f) != 0 }

// find returns f's entry in this cache, or 0. It panics on a file no
// workflow interned: with no index, it would share a chain with every
// other such file.
func (c *PageCache) find(f *workflow.File) int32 {
	i := f.Index()
	if i == 0 {
		panic(fmt.Sprintf("cluster: page cache given file %q, which no workflow interned", f.Name))
	}
	s := c.store
	if i >= len(s.chains) {
		return 0
	}
	for e := s.chains[i]; e != 0; e = s.slab[e].down {
		if s.slab[e].cache == c.id {
			return e
		}
	}
	return 0
}

// trim evicts least-recently-used files until the cache fits the current
// capacity (memory pressure from tasks evicts cached data, as in Linux).
func (c *PageCache) trim() {
	cap := c.Capacity()
	s := c.store
	for c.size > cap {
		back := c.tail
		if back == 0 {
			break
		}
		size := s.slab[back].size
		c.unlink(back)
		s.unchain(back)
		s.release(back)
		c.size -= size
	}
}

// Lookup reports whether f is fully cached, refreshing its recency on a
// hit. Memory pressure is applied first, so a file cached before a large
// task started may have been evicted by it.
func (c *PageCache) Lookup(f *workflow.File) bool {
	c.trim()
	if e := c.find(f); e != 0 {
		c.toFront(e)
		return true
	}
	return false
}

// Insert adds f to the cache, evicting older entries to make room, or
// refreshes its recency if it is already cached. Files larger than the
// current capacity are not cached (they would evict everything for
// nothing).
func (c *PageCache) Insert(f *workflow.File) {
	if e := c.find(f); e != 0 {
		c.toFront(e)
		return
	}
	cap := c.Capacity()
	if f.Size > cap {
		return
	}
	c.size += f.Size
	e := c.store.alloc(f, c)
	c.pushFront(e)
	c.trim()
}

// pushFront makes entry e the cache's most recently used.
func (c *PageCache) pushFront(e int32) {
	s := c.store
	s.slab[e].prev, s.slab[e].next = 0, c.head
	if c.head != 0 {
		s.slab[c.head].prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

// unlink takes entry e off the cache's recency list.
func (c *PageCache) unlink(e int32) {
	s := c.store
	prev, next := s.slab[e].prev, s.slab[e].next
	if prev != 0 {
		s.slab[prev].next = next
	} else {
		c.head = next
	}
	if next != 0 {
		s.slab[next].prev = prev
	} else {
		c.tail = prev
	}
}

// toFront refreshes entry e's recency.
func (c *PageCache) toFront(e int32) {
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

// alloc takes a free slab entry for (f, c) and puts it first on f's
// chain, growing the chain heads to f's index.
func (s *cacheStore) alloc(f *workflow.File, c *PageCache) int32 {
	if len(s.slab) == 0 {
		s.slab = append(s.slab, cacheEntry{}) // the 0 sentinel
	}
	e := s.free
	if e != 0 {
		s.free = s.slab[e].next
	} else {
		e = int32(len(s.slab))
		s.slab = append(s.slab, cacheEntry{})
	}
	i := f.Index()
	if i >= len(s.chains) {
		s.chains = append(s.chains, make([]int32, i+1-len(s.chains))...)
	}
	first := s.chains[i]
	s.slab[e] = cacheEntry{size: f.Size, file: int32(i), cache: c.id, down: first}
	if first != 0 {
		s.slab[first].up = e
	}
	s.chains[i] = e
	s.live++
	return e
}

// unchain takes entry e off its file's chain.
func (s *cacheStore) unchain(e int32) {
	up, down := s.slab[e].up, s.slab[e].down
	if up != 0 {
		s.slab[up].down = down
	} else {
		s.chains[s.slab[e].file] = down
	}
	if down != 0 {
		s.slab[down].up = up
	}
}

// release returns entry e to the free list.
func (s *cacheStore) release(e int32) {
	s.slab[e] = cacheEntry{next: s.free}
	s.free = e
	s.live--
}
