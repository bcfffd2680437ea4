package storage

import (
	"fmt"
	"math"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// PVFS 2.6.3 parameters. The paper had to run this old release (2.8.x
// crashed on EC2), which lacks the small-file optimizations added later:
// creates and opens take several metadata round trips across the striped
// metadata servers, so MB-scale files pay a stiff fixed cost.
const (
	pvfsStripeSize    = 64 * units.KB
	pvfsCreateLatency = 0.110 // create + layout allocation across nodes
	pvfsOpenLatency   = 0.045 // lookup + layout fetch
	// pvfsClientStreamRate caps a single file descriptor's throughput:
	// the 2.6.3 kernel client moves data through a small request window
	// per open file, so one reader cannot saturate the stripe set even
	// when the servers have headroom. Combined with the absent client
	// cache this is what makes PVFS "relatively poor" for Broadband's
	// repeated 1.2 GB velocity-model reads.
	pvfsClientStreamRate = 25 * units.MB
)

// PVFS models the parallel file system striped across the workers' local
// volumes, with distributed metadata (the paper's configuration: every
// node is both client and I/O server).
//
// Unlike the POSIX network file systems, the PVFS kernel client performs
// no client-side data caching (by design, to avoid coherence protocols),
// so every read fetches its stripes again. Combined with the missing
// small-file optimizations, this is why the paper finds PVFS poor for
// Montage and Broadband, whose files are re-read heavily.
type PVFS struct {
	env *Env
	// start is by File.Index: the file's first stripe server plus one,
	// or 0 while the file does not exist.
	start []int32
	stats Stats
	// res is the per-shard resource scratch reused across stripedIO
	// calls; safe because Batch.Add copies it into the shard record
	// before the process can park.
	res []*flow.Resource
}

// NewPVFS returns the PVFS system.
func NewPVFS() *PVFS { return &PVFS{} }

// Name implements System.
func (v *PVFS) Name() string { return "pvfs" }

// ExtraNodeTypes implements System.
func (v *PVFS) ExtraNodeTypes() []cluster.InstanceType { return nil }

// Init implements System.
func (v *PVFS) Init(env *Env) error {
	if err := checkInit(v, env); err != nil {
		return err
	}
	v.env = env
	return nil
}

// PreStage implements System.
func (v *PVFS) PreStage(files []*workflow.File) {
	for _, f := range files {
		*slot(&v.start, fileIndex(f)) = v.placement(f)
	}
}

// placement is f's first stripe server plus one, by name hash.
func (v *PVFS) placement(f *workflow.File) int32 {
	return int32(rng.HashString(f.Name)%uint64(len(v.env.Workers))) + 1
}

// stripeWidth returns how many servers a file of the given size spans: a
// file smaller than one stripe lives on a single server; larger files
// round-robin until they cover the whole volume.
func (v *PVFS) stripeWidth(size float64) int {
	width := int(math.Ceil(size / pvfsStripeSize))
	if max := len(v.env.Workers); width > max {
		return max
	}
	if width < 1 {
		return 1
	}
	return width
}

// stripedIO fans the file out over its stripe servers in parallel, each
// shard crossing the server's disk (and the NICs when remote). The
// servers are the width workers from the file's first stripe server on,
// in placement order, wrapping around.
func (v *PVFS) stripedIO(p *sim.Proc, node *cluster.Node, f *workflow.File, write bool) {
	first := int(at(v.start, fileIndex(f))) - 1
	if first < 0 {
		panic(fmt.Sprintf("pvfs: access to file %q that was never created", f.Name))
	}
	workers := v.env.Workers
	width := v.stripeWidth(f.Size)
	// A striped file is unavailable while ANY of its stripe servers is
	// down — the whole-file fan-out below needs every shard. This is what
	// makes node outages disproportionately expensive for PVFS. Rescan
	// after every blocking wait: an earlier server may have gone down
	// again while we waited on a later one (overlapping outages).
	for again := true; again; {
		again = false
		for i := 0; i < width; i++ {
			if s := workers[(first+i)%len(workers)]; s.Down() {
				s.WaitUp(p)
				again = true
			}
		}
	}
	share := f.Size / float64(width)
	// All shards of one logical file move through the client's request
	// window, modelled as a pooled rate cap shared by the shard
	// transfers. The shards register through a Batch: one reallocation
	// for the whole fan-out instead of one per stripe server.
	window := v.env.Net.AcquireCap("pvfs-client-window", pvfsClientStreamRate)
	b := v.env.Net.NewBatch()
	for i := 0; i < width; i++ {
		s := workers[(first+i)%len(workers)]
		res := append(v.res[:0], window)
		if write {
			res = append(res, s.Disk.WriteResource())
			if s != node {
				res = append(res, node.NICOut, s.NICIn)
			}
		} else {
			res = append(res, s.Disk.ReadResource())
			if s != node {
				res = append(res, s.NICOut, node.NICIn)
			}
		}
		if s != node {
			v.stats.NetworkBytes += share
		}
		b.Add(share, res...)
		v.res = res
	}
	b.Run(p)
	v.env.Net.ReleaseCap(window)
}

// Read implements System. Every read is a cache miss by construction: the
// PVFS client does not cache data.
func (v *PVFS) Read(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	v.stats.Reads++
	v.stats.CacheMisses++
	p.Sleep(pvfsOpenLatency)
	v.stripedIO(p, node, f, false)
}

// Write implements System.
func (v *PVFS) Write(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	v.stats.Writes++
	p.Sleep(pvfsCreateLatency)
	if s := slot(&v.start, fileIndex(f)); *s == 0 {
		*s = v.placement(f)
	}
	v.stripedIO(p, node, f, true)
}

// Stats implements System.
func (v *PVFS) Stats() Stats { return v.stats }
