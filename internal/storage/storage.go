// Package storage models the five data-sharing options the paper compares
// on EC2 — Amazon S3 (with a whole-file client cache), NFS, GlusterFS in
// NUFA and distribute modes, and PVFS — plus the single-node local-disk
// baseline and XtreemFS (which the paper tried and abandoned).
//
// Every system implements the same System interface: the workflow engine
// calls Read before a task uses an input file on a node and Write after
// the task produces an output. Each implementation translates those calls
// into transfers over the shared resource fabric (node disks and NICs, a
// dedicated file-server node, or an S3 service), so contention between
// concurrent tasks — the effect the paper is actually measuring — emerges
// from the max-min fair flow network rather than from closed-form
// formulas. A system that caches file data in a node's RAM — a client's
// reads and writes, or the NFS server's file cache — uses that node's
// own page cache (cluster.Node.Cache), which an outage empties.
package storage

import (
	"fmt"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/workflow"
)

// Env wires a storage system to a provisioned cluster.
type Env struct {
	E       *sim.Engine
	Net     *flow.Net
	Workers []*cluster.Node
	// Extra holds the service nodes the system requested via
	// ExtraNodeTypes, in the same order.
	Extra []*cluster.Node
	R     *rng.RNG
	// Log receives cache-decision events (cache-hit/cache-miss) from
	// backends that model one; nil, the default, records nothing at the
	// cost of one pointer test per decision.
	Log *eventlog.Writer
}

// recordCache logs a cache-hit or cache-miss event in the env's log.
// layer is "client" or "server" (carried in the event's Phase field).
func (env *Env) recordCache(p *sim.Proc, hit bool, layer string, node *cluster.Node, f *workflow.File) {
	kind := eventlog.CacheMiss
	if hit {
		kind = eventlog.CacheHit
	}
	env.Log.Record(eventlog.Event{
		T: p.Now(), Kind: kind, Node: node.Name, File: f.Name, Phase: layer, Size: f.Size,
	})
}

// System is a data-sharing option for workflow files. The worker counts
// a system can form a file system on are not part of it: they live in
// the catalog next to its constructor (see CheckWorkers).
type System interface {
	// Name is the short identifier used in figures ("gluster-nufa").
	Name() string
	// ExtraNodeTypes lists service nodes to provision alongside the
	// workers (e.g. NFS's dedicated m1.xlarge file server).
	ExtraNodeTypes() []cluster.InstanceType
	// Init binds the system to the cluster. It may start background
	// service processes on the engine.
	Init(env *Env) error
	// PreStage places the workflow's input files into the shared store.
	// Per the paper's methodology this consumes no simulated time (inputs
	// are staged before the measured window).
	PreStage(files []*workflow.File)
	// Read makes f's contents available to a task on node, charging the
	// simulated time the access costs.
	Read(p *sim.Proc, node *cluster.Node, f *workflow.File)
	// Write publishes f, produced by a task on node.
	Write(p *sim.Proc, node *cluster.Node, f *workflow.File)
	// Stats reports cumulative counters for cost accounting and reports.
	Stats() Stats
}

// Stats aggregates the counters every system maintains. Fields not
// relevant to a given system stay zero.
type Stats struct {
	Reads  int64
	Writes int64

	// Bytes that crossed the network (inter-node or to/from S3).
	NetworkBytes float64

	// Client-side cache behaviour (page cache or S3 whole-file cache).
	CacheHits   int64
	CacheMisses int64

	// NFS server page-cache behaviour.
	ServerCacheHits   int64
	ServerCacheMisses int64

	// S3 request counters (drive the cost model's request fees).
	Gets            int64
	Puts            int64
	BytesDownloaded float64
	BytesUploaded   float64
}

// checkInit validates the Env handed to Init.
func checkInit(s System, env *Env) error {
	if err := CheckWorkers(s.Name(), len(env.Workers)); err != nil {
		return err
	}
	if want, got := len(s.ExtraNodeTypes()), len(env.Extra); want != got {
		return fmt.Errorf("storage: %s needs %d service node(s), cluster has %d",
			s.Name(), want, got)
	}
	return nil
}

// fileIndex returns f's dense index, its slot in a system's per-file
// tables. It panics on a file no workflow interned: index 0 would give
// every such file the same slot.
func fileIndex(f *workflow.File) int {
	i := f.Index()
	if i == 0 {
		panic(fmt.Sprintf("storage: file %q was not interned by a workflow", f.Name))
	}
	return i
}

// slot returns a pointer to (*s)[i], growing *s with zero values to
// hold it. Per-file tables grow this way, so a run's checkpoint files,
// whose indices lie past its workflow's files, get slots too.
func slot[T any](s *[]T, i int) *T {
	if i >= len(*s) {
		*s = append(*s, make([]T, i+1-len(*s))...)
	}
	return &(*s)[i]
}

// at returns s[i], or the zero value past the end of s.
func at[T any](s []T, i int) T {
	if i < len(s) {
		return s[i]
	}
	var zero T
	return zero
}

// readRemote charges a read of size bytes from owner's disk into reader,
// skipping the NICs when both are the same node. A down owner makes the
// data unavailable: the read blocks until the node recovers (its disk
// contents survive the outage), which is how correlated outages degrade
// systems that place data on worker nodes.
func readRemote(p *sim.Proc, owner, reader *cluster.Node, size float64) {
	owner.WaitUp(p)
	if owner == reader {
		owner.Disk.Read(p, size)
		return
	}
	owner.Disk.Read(p, size, owner.NICOut, reader.NICIn)
}

// writeRemote charges a write of size bytes from writer onto owner's
// disk, blocking while the owner is down (as readRemote does for reads).
func writeRemote(p *sim.Proc, writer, owner *cluster.Node, size float64) {
	owner.WaitUp(p)
	if owner == writer {
		owner.Disk.Write(p, size)
		return
	}
	owner.Disk.Write(p, size, writer.NICOut, owner.NICIn)
}
