// Package cluster models EC2 virtual clusters: instance types, nodes with
// cores/memory/NIC/disk resources and a RAM page cache, and
// Nimbus-Context-Broker-style provisioning (boot plus contextualization).
//
// The catalog encodes the three instance types the paper uses, with 2010
// list prices and the paper's stated hardware: c1.xlarge workers (8 cores,
// 7 GB, 4 ephemeral disks in RAID0), an m1.xlarge NFS server (16 GB — the
// paper's figure — chosen for its page cache), and an m2.4xlarge used in
// the Broadband NFS ablation (64 GB, 8 cores).
package cluster

import (
	"fmt"

	"ec2wfsim/internal/disk"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
)

// InstanceType describes an EC2 resource configuration.
type InstanceType struct {
	Name         string
	Cores        int
	CPUFactor    float64 // per-core speed relative to a c1.xlarge core
	Memory       float64 // bytes of RAM
	NICBandwidth float64 // bytes/sec, each direction
	DiskProfile  disk.Profile
	PricePerHour float64 // USD, 2010 list price
}

// C1XLarge is the worker type used for all experiments: two quad-core
// 2.33-2.66 GHz Xeons, 7 GB RAM, 1690 GB across 4 ephemeral disks.
func C1XLarge() InstanceType {
	return InstanceType{
		Name:         "c1.xlarge",
		Cores:        8,
		CPUFactor:    1.0,
		Memory:       7 * units.GiB,
		NICBandwidth: units.MBps(120), // "high" I/O performance, ~GigE
		DiskProfile:  disk.RAID0(disk.EphemeralSingle(), 4),
		PricePerHour: 0.68,
	}
}

// M1XLarge is the dedicated NFS server type (best NFS performance in the
// paper's benchmarks thanks to its 16 GB of cache-friendly memory).
func M1XLarge() InstanceType {
	return InstanceType{
		Name:         "m1.xlarge",
		Cores:        4,
		CPUFactor:    0.8, // 2 ECU/core vs ~2.5 for c1.xlarge
		Memory:       16 * units.GiB,
		NICBandwidth: units.MBps(120),
		DiskProfile:  disk.RAID0(disk.EphemeralSingle(), 4),
		PricePerHour: 0.68,
	}
}

// M24XLarge is the large-memory NFS server used in the Broadband ablation
// (64 GB memory, 8 cores).
func M24XLarge() InstanceType {
	return InstanceType{
		Name:      "m2.4xlarge",
		Cores:     8,
		CPUFactor: 1.1,
		Memory:    64 * units.GiB,
		// The largest instances receive a bigger share of the host NIC;
		// this is what makes the paper's big-server NFS ablation pay off
		// (4368 s vs 5363 s for Broadband at 4 nodes).
		NICBandwidth: units.MBps(150),
		DiskProfile:  disk.RAID0(disk.EphemeralSingle(), 2),
		PricePerHour: 2.40,
	}
}

// M1Large is a mid-range alternative worker (4 GB won't even hold one
// Broadband lowFreq comfortably; included for worker-type sweeps).
func M1Large() InstanceType {
	return InstanceType{
		Name:         "m1.large",
		Cores:        2,
		CPUFactor:    0.8,
		Memory:       7.5 * units.GiB,
		NICBandwidth: units.MBps(80),
		DiskProfile:  disk.RAID0(disk.EphemeralSingle(), 2),
		PricePerHour: 0.34,
	}
}

// typeCatalog is the single name->constructor table behind TypeNames
// and TypeByName, so the advertised names can never drift from the
// resolvable ones. First entry is the default for the empty name.
var typeCatalog = []struct {
	name  string
	build func() InstanceType
}{
	{"c1.xlarge", C1XLarge},
	{"m1.xlarge", M1XLarge},
	{"m1.large", M1Large},
	{"m2.4xlarge", M24XLarge},
}

// TypeNames lists the catalog's instance-type names (empty selects the
// c1.xlarge default).
func TypeNames() []string {
	names := make([]string, len(typeCatalog))
	for i, t := range typeCatalog {
		names[i] = t.name
	}
	return names
}

// TypeByName resolves a worker instance type by its EC2 name.
func TypeByName(name string) (InstanceType, error) {
	if name == "" {
		return typeCatalog[0].build(), nil
	}
	for _, t := range typeCatalog {
		if t.name == name {
			return t.build(), nil
		}
	}
	return InstanceType{}, fmt.Errorf("cluster: unknown instance type %q", name)
}

// Node is a provisioned virtual machine instance.
type Node struct {
	Name   string
	Index  int // position within its cluster role
	Type   InstanceType
	Memory *sim.Semaphore // MB-granularity RAM admission
	NICIn  *flow.Resource
	NICOut *flow.Resource
	Disk   *disk.Disk
	// Cache is the node's page cache. Every storage system that caches
	// file data in this node's RAM uses it.
	Cache *PageCache

	BootDelay float64 // seconds from provision request to usable

	// Outage state (correlated node failures): while down, the node's
	// slots stop requesting jobs, in-flight attempts are killed, and
	// storage traffic that needs this node blocks in WaitUp until
	// recovery. Going down empties the page cache; disk contents survive
	// (the node comes back like a rebooted instance).
	down      bool
	upWaiters []*sim.Proc
}

// Down reports whether the node is currently offline.
func (n *Node) Down() bool { return n.down }

// SetDown takes the node offline. RAM contents are lost (the page cache
// empties); disk contents survive. Idempotent while down.
func (n *Node) SetDown() {
	if n.down {
		return
	}
	n.down = true
	n.Cache.Drop()
}

// SetUp brings the node back online, waking every process blocked in
// WaitUp (in arrival order, through the event queue, so recovery is
// deterministic).
func (n *Node) SetUp() {
	if !n.down {
		return
	}
	n.down = false
	waiters := n.upWaiters
	n.upWaiters = nil
	for _, p := range waiters {
		p.Resume()
	}
}

// WaitUp blocks p until the node is online. It returns immediately —
// without yielding — when the node is already up, so outage-free runs
// are untouched by these checks.
func (n *Node) WaitUp(p *sim.Proc) {
	for n.down {
		n.upWaiters = append(n.upWaiters, p)
		p.Suspend()
	}
}

// MemoryMB converts a byte figure to the semaphore's MB units (ceiling).
func MemoryMB(bytes float64) int {
	mb := int(bytes / units.MB)
	if float64(mb)*units.MB < bytes {
		mb++
	}
	return mb
}

// newNode builds a node of the given type, registering its resources.
// Its page cache starts empty, with the OS reserve held back, and keeps
// its entries in the cluster's store.
func newNode(e *sim.Engine, net *flow.Net, store *cacheStore, name string, index int, t InstanceType) *Node {
	n := &Node{
		Name:   name,
		Index:  index,
		Type:   t,
		Memory: sim.NewSemaphore(e, name+"/mem", MemoryMB(t.Memory)),
		NICIn:  flow.NewResource(name+"/nic-in", t.NICBandwidth),
		NICOut: flow.NewResource(name+"/nic-out", t.NICBandwidth),
		Disk:   disk.New(net, name+"/disk", t.DiskProfile),
	}
	n.Cache = newPageCache(n, store, osReserve)
	return n
}

// Config describes a virtual cluster to provision.
type Config struct {
	Workers    int
	WorkerType InstanceType
	// Extra service nodes (e.g. a dedicated NFS server), provisioned
	// alongside the workers and billed like them.
	Extra []InstanceType
	// InitializeDisks zero-fills every ephemeral volume during
	// provisioning, trading boot time for steady-state write rates. The
	// paper argues this is rarely economical; it defaults to off.
	InitializeDisks bool
	// InitializeBytes bounds the zero-fill per node when InitializeDisks
	// is set (0 means the workflow's working-set estimate is unknown and
	// the full volume is filled).
	InitializeBytes float64
}

// Cluster is a provisioned virtual cluster.
type Cluster struct {
	Engine  *sim.Engine
	Net     *flow.Net
	Workers []*Node
	Extra   []*Node

	// ProvisionTime is the wall-clock seconds from request to a fully
	// contextualized cluster (excluded from workflow makespans, as in the
	// paper, but reported separately).
	ProvisionTime float64
}

// boot-time window observed by the paper (via CloudStatus): 70-90 s.
const (
	bootMin = 70.0
	bootMax = 90.0
	// Contextualization: generating configuration files and starting
	// services via the context broker agent.
	contextualize = 10.0
)

// New provisions a cluster. Node boot delays are drawn deterministically
// from r; the cluster is usable after the slowest node has booted and been
// contextualized. New must be called at simulation time zero (provisioning
// happens "before" the workflow clock in the paper's methodology).
func New(e *sim.Engine, net *flow.Net, r *rng.RNG, cfg Config) (*Cluster, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 worker, got %d", cfg.Workers)
	}
	if cfg.WorkerType.Cores == 0 {
		return nil, fmt.Errorf("cluster: worker type has no cores (zero InstanceType?)")
	}
	c := &Cluster{Engine: e, Net: net}
	store := &cacheStore{}
	slowest := 0.0
	for i := 0; i < cfg.Workers; i++ {
		n := newNode(e, net, store, fmt.Sprintf("worker%d", i), i, cfg.WorkerType)
		n.BootDelay = bootMin + (bootMax-bootMin)*r.Float64()
		if n.BootDelay > slowest {
			slowest = n.BootDelay
		}
		c.Workers = append(c.Workers, n)
	}
	for i, t := range cfg.Extra {
		n := newNode(e, net, store, fmt.Sprintf("%s-svc%d", t.Name, i), i, t)
		n.BootDelay = bootMin + (bootMax-bootMin)*r.Float64()
		if n.BootDelay > slowest {
			slowest = n.BootDelay
		}
		c.Extra = append(c.Extra, n)
	}
	c.ProvisionTime = slowest + contextualize
	if cfg.InitializeDisks {
		c.ProvisionTime += c.initializeDisks(cfg.InitializeBytes)
	}
	return c, nil
}

// initializeDisks zero-fills volumes on all nodes in parallel, returning
// the added provisioning seconds, and leaves every disk at steady-state
// write rates.
func (c *Cluster) initializeDisks(bytes float64) float64 {
	worst := 0.0
	for _, n := range c.AllNodes() {
		size := bytes
		if size <= 0 || size > n.Disk.Profile().Capacity {
			size = n.Disk.Profile().Capacity
		}
		// All nodes zero in parallel; each is alone on its own disk, so
		// the time is simply size/firstWriteRate — no need to simulate.
		t := size / n.Disk.Profile().FirstWrite
		if t > worst {
			worst = t
		}
		n.Disk.MarkInitialized()
	}
	return worst
}

// AllNodes returns workers followed by extra service nodes.
func (c *Cluster) AllNodes() []*Node {
	all := make([]*Node, 0, len(c.Workers)+len(c.Extra))
	all = append(all, c.Workers...)
	all = append(all, c.Extra...)
	return all
}

// TotalCores returns the worker-core count (service nodes run no tasks).
func (c *Cluster) TotalCores() int {
	total := 0
	for _, n := range c.Workers {
		total += n.Type.Cores
	}
	return total
}
