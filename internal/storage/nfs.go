package storage

import (
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// NFS client/server tuning, matching the paper's configuration: the async
// export option (server acknowledges writes once they reach its memory)
// and atime updates disabled (so reads cost one RPC, not a write-back).
const (
	nfsRPCLatency = 0.0012 // per-operation round trip inside EC2
	// flushChunk is the granularity at which the server's flusher daemon
	// drains dirty pages to disk.
	nfsFlushChunk = 64 * units.MB
	// nfsIncast is the per-additional-client efficiency loss at the
	// server: with many clients issuing concurrent requests the server's
	// effective throughput collapses below NIC line rate (request
	// scheduling, TCP incast). This is the mechanism behind the paper's
	// most surprising data point — Broadband on NFS getting *slower*
	// from 2 to 4 nodes, "consistent across repeated experiments".
	nfsIncast = 0.30
	// nfsServerReserve is the server RAM its kernel and NFS daemons keep
	// away from the page cache.
	nfsServerReserve = 1 * units.GiB
)

// NFS models a dedicated central file server. Every read and write crosses
// the server's NIC, which is the scalability cliff the paper observes:
// fine with few clients or low I/O, collapsing for Broadband at 4+ nodes.
type NFS struct {
	// ServerType is the instance type for the dedicated server:
	// m1.xlarge by default (the paper's best pick), m2.4xlarge in the
	// Broadband ablation.
	ServerType cluster.InstanceType
	// Async mirrors the paper's "async" export option. When false, every
	// write waits for the server's disk (first-write penalty included).
	Async bool
	// label distinguishes variants in reports.
	label string

	env    *Env
	server *cluster.Node
	srvIn  *flow.Resource // server ingest path (incast-degraded)
	srvOut *flow.Resource // server egress path (incast-degraded)

	dirty         float64
	dirtyLimit    float64
	flusherNotify *sim.Mailbox[struct{}]

	stats Stats
}

// NewNFS returns the paper's default NFS deployment: dedicated m1.xlarge
// server, async exports, atime off.
func NewNFS() *NFS {
	return &NFS{ServerType: cluster.M1XLarge(), Async: true, label: "nfs"}
}

// NewNFSBigServer returns the m2.4xlarge variant from the Broadband
// ablation (Section V.C).
func NewNFSBigServer() *NFS {
	return &NFS{ServerType: cluster.M24XLarge(), Async: true, label: "nfs-m2.4xlarge"}
}

// NewNFSSync returns a synchronous-export variant (ablation A-4).
func NewNFSSync() *NFS {
	return &NFS{ServerType: cluster.M1XLarge(), Async: false, label: "nfs-sync"}
}

// Name implements System.
func (n *NFS) Name() string { return n.label }

// ExtraNodeTypes implements System.
func (n *NFS) ExtraNodeTypes() []cluster.InstanceType {
	return []cluster.InstanceType{n.ServerType}
}

// Init implements System.
func (n *NFS) Init(env *Env) error {
	if err := checkInit(n, env); err != nil {
		return err
	}
	n.env = env
	n.server = env.Extra[0]
	eff := n.server.Type.NICBandwidth / (1 + nfsIncast*float64(len(env.Workers)-1))
	n.srvIn = flow.NewResource("nfs-srv-in", eff)
	n.srvOut = flow.NewResource("nfs-srv-out", eff)
	n.server.Cache.SetReserve(nfsServerReserve)
	n.dirtyLimit = 0.4 * n.server.Type.Memory
	n.flusherNotify = sim.NewMailbox[struct{}](env.E)
	env.E.GoDaemon("nfs-flusher", n.flusher)
	return nil
}

// flusher is the server's write-back daemon: it drains dirty bytes to the
// server disk, competing with any synchronous traffic for the disk's write
// channel. It runs for the life of the simulation.
func (n *NFS) flusher(p *sim.Proc) {
	for {
		if n.dirty <= 0 {
			if _, ok := n.flusherNotify.Get(p); !ok {
				return
			}
			continue
		}
		chunk := n.dirty
		if chunk > nfsFlushChunk {
			chunk = nfsFlushChunk
		}
		n.server.Disk.Write(p, chunk)
		n.dirty -= chunk
	}
}

// serverInsert caches f in the server's page cache. Rewriting a file the
// server already caches leaves its LRU position where it was: only reads
// refresh recency on the server.
func (n *NFS) serverInsert(f *workflow.File) {
	if !n.server.Cache.Contains(f) {
		n.server.Cache.Insert(f)
	}
}

// PreStage implements System: inputs land on the server's disk (and warm
// its cache, as copying them through the server would).
func (n *NFS) PreStage(files []*workflow.File) {
	for _, f := range files {
		n.serverInsert(f)
	}
}

// Read implements System.
func (n *NFS) Read(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	n.stats.Reads++
	p.Sleep(nfsRPCLatency)
	if node.Cache.Lookup(f) {
		n.stats.CacheHits++
		n.env.recordCache(p, true, "client", node, f)
		return
	}
	n.stats.CacheMisses++
	n.env.recordCache(p, false, "client", node, f)
	n.stats.NetworkBytes += f.Size
	if n.server.Cache.Lookup(f) {
		// Served from server memory: network path only.
		n.stats.ServerCacheHits++
		n.env.recordCache(p, true, "server", node, f)
		n.env.Net.Transfer(p, f.Size, n.srvOut, node.NICIn)
	} else {
		n.stats.ServerCacheMisses++
		n.env.recordCache(p, false, "server", node, f)
		n.server.Disk.Read(p, f.Size, n.srvOut, node.NICIn)
		n.serverInsert(f)
	}
	node.Cache.Insert(f)
}

// Write implements System.
func (n *NFS) Write(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	n.stats.Writes++
	p.Sleep(nfsRPCLatency)
	n.stats.NetworkBytes += f.Size
	switch {
	case !n.Async:
		// Synchronous export: the write is bounded by the server disk.
		n.server.Disk.Write(p, f.Size, node.NICOut, n.srvIn)
	case n.dirty > n.dirtyLimit:
		// Dirty buffer full: async degrades to disk speed (the client
		// write is throttled behind the flusher).
		n.server.Disk.Write(p, f.Size, node.NICOut, n.srvIn)
	default:
		// Async: acknowledged once in server memory.
		n.env.Net.Transfer(p, f.Size, node.NICOut, n.srvIn)
		n.dirty += f.Size
		if n.flusherNotify.Len() == 0 {
			n.flusherNotify.Put(struct{}{})
		}
	}
	n.serverInsert(f)
	node.Cache.Insert(f)
}

// Stats implements System.
func (n *NFS) Stats() Stats { return n.stats }
