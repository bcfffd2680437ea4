package cluster

import (
	"container/list"

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
type PageCache struct {
	node    *Node
	reserve float64
	entries map[*workflow.File]*list.Element
	lru     *list.List // front = most recently used
	size    float64
}

// NewPageCache returns an empty cache over node's RAM, less reserve bytes
// that the kernel and daemons keep for themselves.
func NewPageCache(node *Node, reserve float64) *PageCache {
	return &PageCache{
		node:    node,
		reserve: reserve,
		entries: make(map[*workflow.File]*list.Element),
		lru:     list.New(),
	}
}

// Drop empties the cache, as a reboot loses the node's RAM. The entry
// map is replaced, not cleared, so the memory it held is released.
func (c *PageCache) Drop() {
	c.entries = make(map[*workflow.File]*list.Element)
	c.lru.Init()
	c.size = 0
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
func (c *PageCache) Contains(f *workflow.File) bool {
	_, ok := c.entries[f]
	return ok
}

// trim evicts least-recently-used files until the cache fits the current
// capacity (memory pressure from tasks evicts cached data, as in Linux).
func (c *PageCache) trim() {
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

// Lookup reports whether f is fully cached, refreshing its recency on a
// hit. Memory pressure is applied first, so a file cached before a large
// task started may have been evicted by it.
func (c *PageCache) Lookup(f *workflow.File) bool {
	c.trim()
	if el, ok := c.entries[f]; ok {
		c.lru.MoveToFront(el)
		return true
	}
	return false
}

// Insert adds f to the cache, evicting older entries to make room, or
// refreshes its recency if it is already cached. Files larger than the
// current capacity are not cached (they would evict everything for
// nothing).
func (c *PageCache) Insert(f *workflow.File) {
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
