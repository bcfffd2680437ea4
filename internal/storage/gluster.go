package storage

import (
	"fmt"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/workflow"
)

// GlusterFS lookup costs: the translator stack resolves file locations by
// querying peers, so metadata latency grows mildly with the volume's node
// count.
const (
	glusterBaseLatency    = 0.0008
	glusterPerNodeLatency = 0.0002
)

// GlusterMode selects the translator configuration.
type GlusterMode int

// The two configurations the paper deploys: in both, every node is client
// and server over its local RAID0 volume.
const (
	// NUFA (non-uniform file access) writes new files to the local disk;
	// reads go wherever the file was created.
	NUFA GlusterMode = iota
	// Distribute places files by filename hash across all nodes.
	Distribute
)

// Gluster models a GlusterFS volume spanning the workers' local disks.
type Gluster struct {
	Mode GlusterMode

	env   *Env
	loc   []*cluster.Node // by File.Index: the node holding the file
	stats Stats
}

// NewGluster returns a GlusterFS system in the given mode.
func NewGluster(mode GlusterMode) *Gluster { return &Gluster{Mode: mode} }

// Name implements System.
func (g *Gluster) Name() string {
	if g.Mode == NUFA {
		return "gluster-nufa"
	}
	return "gluster-dist"
}

// ExtraNodeTypes implements System: GlusterFS runs on the workers.
func (g *Gluster) ExtraNodeTypes() []cluster.InstanceType { return nil }

// Init implements System.
func (g *Gluster) Init(env *Env) error {
	if err := checkInit(g, env); err != nil {
		return err
	}
	g.env = env
	return nil
}

// hashOwner picks the distribute-mode placement for a file.
func (g *Gluster) hashOwner(f *workflow.File) *cluster.Node {
	h := rng.HashString(f.Name)
	return g.env.Workers[int(h%uint64(len(g.env.Workers)))]
}

// PreStage implements System. Inputs are spread round-robin in NUFA mode
// (they were copied onto the volume node by node) and by hash in
// distribute mode.
func (g *Gluster) PreStage(files []*workflow.File) {
	for i, f := range files {
		owner := g.env.Workers[i%len(g.env.Workers)]
		if g.Mode == Distribute {
			owner = g.hashOwner(f)
		}
		*slot(&g.loc, fileIndex(f)) = owner
	}
}

// lookupLatency is the metadata cost of one operation.
func (g *Gluster) lookupLatency() float64 {
	return glusterBaseLatency + glusterPerNodeLatency*float64(len(g.env.Workers))
}

// Read implements System.
func (g *Gluster) Read(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	g.stats.Reads++
	p.Sleep(g.lookupLatency())
	if node.Cache.Lookup(f) {
		g.stats.CacheHits++
		return
	}
	g.stats.CacheMisses++
	owner := at(g.loc, fileIndex(f))
	if owner == nil {
		panic(fmt.Sprintf("gluster: read of file %q that was never written or staged", f.Name))
	}
	if owner != node {
		g.stats.NetworkBytes += f.Size
	}
	readRemote(p, owner, node, f.Size)
	node.Cache.Insert(f)
}

// Write implements System.
func (g *Gluster) Write(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	g.stats.Writes++
	p.Sleep(g.lookupLatency())
	owner := node
	if g.Mode == Distribute {
		owner = g.hashOwner(f)
	}
	if owner != node {
		g.stats.NetworkBytes += f.Size
	}
	writeRemote(p, node, owner, f.Size)
	*slot(&g.loc, fileIndex(f)) = owner
	node.Cache.Insert(f)
}

// Stats implements System.
func (g *Gluster) Stats() Stats { return g.stats }

// Owner reports which node holds f (nil if unknown), letting a data-aware
// scheduler exploit NUFA locality.
func (g *Gluster) Owner(f *workflow.File) *cluster.Node { return at(g.loc, fileIndex(f)) }
