package storage

import (
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/workflow"
)

// localOpLatency is the per-file open/close overhead on a local ext3
// volume — essentially free next to any network system.
const localOpLatency = 0.0002

// Local is the single-node baseline: all files live on the node's RAID0
// ephemeral volume. The paper reports it as a single point in each figure.
type Local struct {
	stats Stats
}

// NewLocal returns the local-disk system.
func NewLocal() *Local { return &Local{} }

// Name implements System.
func (l *Local) Name() string { return "local" }

// ExtraNodeTypes implements System.
func (l *Local) ExtraNodeTypes() []cluster.InstanceType { return nil }

// Init implements System. Local storage cannot share data, so the
// catalog bounds it to one node.
func (l *Local) Init(env *Env) error { return checkInit(l, env) }

// PreStage implements System: inputs already sit on the local volume.
func (l *Local) PreStage(files []*workflow.File) {}

// Read implements System.
func (l *Local) Read(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	l.stats.Reads++
	p.Sleep(localOpLatency)
	if node.Cache.Lookup(f) {
		l.stats.CacheHits++
		return
	}
	l.stats.CacheMisses++
	node.Disk.Read(p, f.Size)
	node.Cache.Insert(f)
}

// Write implements System.
func (l *Local) Write(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	l.stats.Writes++
	p.Sleep(localOpLatency)
	node.Disk.Write(p, f.Size)
	node.Cache.Insert(f)
}

// Stats implements System.
func (l *Local) Stats() Stats { return l.stats }
