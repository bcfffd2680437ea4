package storage

import (
	"fmt"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// S3 service characteristics inside the EC2 region (2010): generous
// aggregate throughput, but a noticeable per-request setup cost and a
// modest per-connection streaming rate — which is why "a large number of
// small files" is S3's worst case in the paper.
const (
	s3GetLatency    = 0.070 // REST GET first-byte latency
	s3PutLatency    = 0.140 // REST PUT including commit acknowledgement
	s3PerConnRate   = 25 * units.MB
	s3AggregateRate = 10 * units.GB // regional service capacity (not a bottleneck)
)

// S3 models the paper's object-store option. Tasks cannot read S3
// directly (no POSIX interface), so the workflow management system wraps
// every job with GETs and PUTs: each input is downloaded to the node's
// local disk before the job and each output is uploaded after it. A
// whole-file client cache — possible because the workflows are strictly
// write-once — ensures each file is downloaded to a node at most once and
// lets outputs produced on a node be reused there without a round trip.
type S3 struct {
	// CacheEnabled toggles the client cache (ablation A-1). The paper's
	// implementation always caches.
	CacheEnabled bool
	label        string

	env     *Env
	service *flow.Resource
	objects []bool // by File.Index: the object is stored in S3
	// copies lists the whole-file disk caches that hold each file: by
	// File.Index, the file's first entry in copySlab, whose entries link
	// to the next worker holding the same file (0 ends a list).
	copies   []int32
	copySlab []s3Copy
	stats    Stats
}

// s3Copy is one worker's local copy of a file.
type s3Copy struct {
	node *cluster.Node
	next int32
}

// NewS3 returns the paper's S3 client with whole-file caching.
func NewS3() *S3 { return &S3{CacheEnabled: true, label: "s3"} }

// NewS3NoCache returns the cache-less variant for the ablation.
func NewS3NoCache() *S3 { return &S3{CacheEnabled: false, label: "s3-nocache"} }

// Name implements System.
func (s *S3) Name() string { return s.label }

// ExtraNodeTypes implements System: S3 is a hosted service, no nodes.
func (s *S3) ExtraNodeTypes() []cluster.InstanceType { return nil }

// Init implements System.
func (s *S3) Init(env *Env) error {
	if err := checkInit(s, env); err != nil {
		return err
	}
	s.env = env
	s.service = flow.NewResource("s3-service", s3AggregateRate)
	s.copySlab = []s3Copy{{}} // entry 0 ends every list
	return nil
}

// PreStage implements System: inputs are uploaded to the bucket before the
// measured window.
func (s *S3) PreStage(files []*workflow.File) {
	for _, f := range files {
		*slot(&s.objects, fileIndex(f)) = true
	}
}

// get downloads f from S3 to node's local disk.
func (s *S3) get(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	if !at(s.objects, fileIndex(f)) {
		panic(fmt.Sprintf("s3: GET of object %q that was never PUT", f.Name))
	}
	s.stats.Gets++
	s.stats.BytesDownloaded += f.Size
	s.stats.NetworkBytes += f.Size
	p.Sleep(s3GetLatency)
	// Stream from the service through the NIC onto the local disk: the
	// first of the paper's "each file must be written twice" writes. The
	// per-connection ceiling is a pooled cap from the flow graph.
	conn := s.env.Net.AcquireCap("s3-conn", s3PerConnRate)
	node.Disk.Write(p, f.Size, conn, s.service, node.NICIn)
	s.env.Net.ReleaseCap(conn)
	node.Cache.Insert(f)
}

// put uploads f from node's local disk to S3.
func (s *S3) put(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	s.stats.Puts++
	s.stats.BytesUploaded += f.Size
	s.stats.NetworkBytes += f.Size
	p.Sleep(s3PutLatency)
	conn := s.env.Net.AcquireCap("s3-conn", s3PerConnRate)
	if node.Cache.Lookup(f) {
		// Freshly written data is still in the page cache: upload
		// straight from memory.
		s.env.Net.Transfer(p, f.Size, conn, s.service, node.NICOut)
	} else {
		node.Disk.Read(p, f.Size, conn, s.service, node.NICOut)
	}
	s.env.Net.ReleaseCap(conn)
	*slot(&s.objects, fileIndex(f)) = true
}

// keep records node's local copy of f in the client cache.
func (s *S3) keep(node *cluster.Node, f *workflow.File) {
	if s.CachedOn(node, f) {
		return
	}
	first := slot(&s.copies, fileIndex(f))
	s.copySlab = append(s.copySlab, s3Copy{node: node, next: *first})
	*first = int32(len(s.copySlab) - 1)
}

// Read implements System: ensure a local copy (GET on cache miss), then
// the task reads it from local disk.
func (s *S3) Read(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	s.stats.Reads++
	if s.CachedOn(node, f) {
		s.stats.CacheHits++
		s.env.recordCache(p, true, "client", node, f)
	} else {
		s.stats.CacheMisses++
		s.env.recordCache(p, false, "client", node, f)
		s.get(p, node, f)
		if s.CacheEnabled {
			s.keep(node, f)
		}
	}
	// Local read of the staged copy (second of the paper's "read twice").
	if node.Cache.Lookup(f) {
		return
	}
	node.Disk.Read(p, f.Size)
	node.Cache.Insert(f)
}

// Write implements System: the job writes to local disk, then the wrapper
// uploads the output and remembers it in the node cache so later jobs on
// this node can reuse it without a GET.
func (s *S3) Write(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	s.stats.Writes++
	node.Disk.Write(p, f.Size)
	node.Cache.Insert(f)
	s.put(p, node, f)
	if s.CacheEnabled {
		s.keep(node, f)
	}
}

// Stats implements System.
func (s *S3) Stats() Stats { return s.stats }

// CachedOn reports whether node already holds a local copy of f, letting
// a data-aware scheduler raise the client cache's hit rate.
func (s *S3) CachedOn(node *cluster.Node, f *workflow.File) bool {
	if !s.CacheEnabled {
		return false
	}
	for c := at(s.copies, fileIndex(f)); c != 0; c = s.copySlab[c].next {
		if s.copySlab[c].node == node {
			return true
		}
	}
	return false
}
