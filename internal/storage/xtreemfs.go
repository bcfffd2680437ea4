package storage

import (
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// XtreemFS is designed for wide-area deployments: object-based with
// strong consistency coordination, its per-operation costs inside a
// single EC2 availability zone dwarf the cluster file systems'. The paper
// started experiments with it but terminated them after workflows ran
// more than twice as long as on the other systems; we model it so the
// harness can reproduce that observation (experiment E-X1).
const (
	xtreemOpLatency   = 0.28           // MRC metadata round trips per open/create
	xtreemPerConnRate = 10 * units.MB  // striped OSD streaming, WAN-tuned
	xtreemServiceRate = 150 * units.MB // shared MRC/OSD frontend capacity
)

// XtreemFS models the wide-area file system option.
type XtreemFS struct {
	env     *Env
	service *flow.Resource
	stats   Stats
}

// NewXtreemFS returns the XtreemFS system.
func NewXtreemFS() *XtreemFS { return &XtreemFS{} }

// Name implements System.
func (x *XtreemFS) Name() string { return "xtreemfs" }

// ExtraNodeTypes implements System: directory/metadata services modelled
// as an external endpoint rather than a billed node.
func (x *XtreemFS) ExtraNodeTypes() []cluster.InstanceType { return nil }

// Init implements System.
func (x *XtreemFS) Init(env *Env) error {
	if err := checkInit(x, env); err != nil {
		return err
	}
	x.env = env
	x.service = flow.NewResource("xtreemfs-service", xtreemServiceRate)
	return nil
}

// PreStage implements System: inputs already sit on the OSDs.
func (x *XtreemFS) PreStage(files []*workflow.File) {}

// Read implements System.
func (x *XtreemFS) Read(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	x.stats.Reads++
	p.Sleep(xtreemOpLatency)
	if node.Cache.Lookup(f) {
		x.stats.CacheHits++
		return
	}
	x.stats.CacheMisses++
	x.stats.NetworkBytes += f.Size
	conn := x.env.Net.AcquireCap("xtreemfs-conn", xtreemPerConnRate)
	x.env.Net.Transfer(p, f.Size, conn, x.service, node.NICIn)
	x.env.Net.ReleaseCap(conn)
	node.Cache.Insert(f)
}

// Write implements System.
func (x *XtreemFS) Write(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	x.stats.Writes++
	p.Sleep(xtreemOpLatency)
	x.stats.NetworkBytes += f.Size
	conn := x.env.Net.AcquireCap("xtreemfs-conn", xtreemPerConnRate)
	x.env.Net.Transfer(p, f.Size, conn, x.service, node.NICOut)
	x.env.Net.ReleaseCap(conn)
	node.Cache.Insert(f)
}

// Stats implements System.
func (x *XtreemFS) Stats() Stats { return x.stats }
