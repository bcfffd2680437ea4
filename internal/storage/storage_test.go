package storage

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// deployOutage builds a 2-worker cluster on the given storage system for
// the outage-degradation tests below.
func deployOutage(t *testing.T, sysName string) (*sim.Engine, *cluster.Cluster, System) {
	t.Helper()
	sys, err := ByName(sysName)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := cluster.New(e, net, rng.New(3), cluster.Config{
		Workers:    2,
		WorkerType: cluster.C1XLarge(),
		Extra:      sys.ExtraNodeTypes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(5)}
	if err := sys.Init(env); err != nil {
		t.Fatal(err)
	}
	return e, c, sys
}

// TestReadBlocksWhileOwnerDown: a GlusterFS read whose owner node is
// offline must wait for the node to recover before the data moves.
func TestReadBlocksWhileOwnerDown(t *testing.T) {
	wf := newFiles()
	e, c, sys := deployOutage(t, "gluster-nufa")
	f := wf("data", 10*units.MB)
	sys.PreStage([]*workflow.File{f}) // round-robin: lands on worker 0
	owner, reader := c.Workers[0], c.Workers[1]
	owner.SetDown()
	e.At(50, func() { owner.SetUp() })
	var done float64
	e.Go("reader", func(p *sim.Proc) {
		sys.Read(p, reader, f)
		done = p.Now()
	})
	e.Run()
	if done < 50 {
		t.Errorf("read of down-owner data finished at %.1f, before recovery at 50", done)
	}
}

// TestPVFSStripedReadBlocksOnAnyServer: PVFS fans every read over all
// stripe servers, so one down node stalls the whole file.
func TestPVFSStripedReadBlocksOnAnyServer(t *testing.T) {
	wf := newFiles()
	e, c, sys := deployOutage(t, "pvfs")
	f := wf("striped", 10*units.MB) // spans both workers
	sys.PreStage([]*workflow.File{f})
	c.Workers[1].SetDown()
	e.At(30, func() { c.Workers[1].SetUp() })
	var done float64
	e.Go("reader", func(p *sim.Proc) {
		sys.Read(p, c.Workers[0], f)
		done = p.Now()
	})
	e.Run()
	if done < 30 {
		t.Errorf("striped read finished at %.1f with a stripe server down until 30", done)
	}
}

// TestPageCacheLostOnOutage: an outage reboots the node, so its RAM page
// cache must come back empty (a re-read pays the full cost again) while
// S3's disk-backed whole-file cache survives.
func TestPageCacheLostOnOutage(t *testing.T) {
	wf := newFiles()
	e, c, sys := deployOutage(t, "gluster-nufa")
	f := wf("hot", 50*units.MB)
	sys.PreStage([]*workflow.File{f})
	node := c.Workers[0]
	var warm, cold float64
	e.Go("reader", func(p *sim.Proc) {
		sys.Read(p, node, f) // populate
		start := p.Now()
		sys.Read(p, node, f) // cached: near-free
		warm = p.Now() - start
		node.SetDown()
		node.SetUp() // reboot: RAM gone, disk intact
		start = p.Now()
		sys.Read(p, node, f)
		cold = p.Now() - start
	})
	e.Run()
	if cold <= warm {
		t.Errorf("post-outage re-read took %.4f s, cached read %.4f s; page cache survived the reboot", cold, warm)
	}
}

// rig bundles a small simulated deployment for storage tests.
type rig struct {
	e   *sim.Engine
	net *flow.Net
	c   *cluster.Cluster
	sys System
}

// newRig provisions `workers` c1.xlarge nodes plus whatever service nodes
// the system requests, and initializes the system.
func newRig(t *testing.T, sys System, workers int) *rig {
	t.Helper()
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := cluster.New(e, net, rng.New(7), cluster.Config{
		Workers:    workers,
		WorkerType: cluster.C1XLarge(),
		Extra:      sys.ExtraNodeTypes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(11)}
	if err := sys.Init(env); err != nil {
		t.Fatal(err)
	}
	return &rig{e: e, net: net, c: c, sys: sys}
}

// timed runs fn in a process and returns the simulated seconds it took.
func (r *rig) timed(fn func(p *sim.Proc)) float64 {
	var took float64
	r.e.Go("op", func(p *sim.Proc) {
		start := p.Now()
		fn(p)
		took = p.Now() - start
	})
	r.e.Run()
	return took
}

// newFiles returns a maker of interned test files. Each test takes its
// own, so no two files in one cluster share an index; a name asked for
// twice returns the first file.
func newFiles() func(name string, size float64) *workflow.File {
	return workflow.New("storage-test").File
}

func TestLocalReadWriteTiming(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewLocal(), 1)
	n := r.c.Workers[0]
	f := wf("data", 800*units.MB)
	took := r.timed(func(p *sim.Proc) {
		r.sys.Write(p, n, f) // first write at 80 MB/s -> 10 s
	})
	if math.Abs(took-10) > 0.1 {
		t.Errorf("local first write of 800 MB took %.2f s, want ~10 (80 MB/s RAID0)", took)
	}
	// The file is in the page cache; a re-read is nearly free.
	took = r.timed(func(p *sim.Proc) { r.sys.Read(p, n, f) })
	if took > 0.01 {
		t.Errorf("cached re-read took %.3f s, want ~0", took)
	}
	if r.sys.Stats().CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", r.sys.Stats().CacheHits)
	}
}

func TestLocalRejectsMultiNode(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := cluster.New(e, net, rng.New(7), cluster.Config{Workers: 2, WorkerType: cluster.C1XLarge()})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewLocal()
	env := &Env{E: e, Net: net, Workers: c.Workers, R: rng.New(1)}
	if err := sys.Init(env); err == nil {
		t.Error("local system accepted a 2-node cluster")
	}
}

func TestPageCacheMemoryPressure(t *testing.T) {
	wf := newFiles()
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := cluster.New(e, net, rng.New(7), cluster.Config{Workers: 1, WorkerType: cluster.C1XLarge()})
	if err != nil {
		t.Fatal(err)
	}
	node := c.Workers[0]
	pc := node.Cache
	big := wf("velocity-model", 2*units.GB)
	pc.Insert(big)
	if !pc.Lookup(big) {
		t.Fatal("file not cached with idle memory")
	}
	// A Broadband-style task claims 6 GB of the 7 GiB node: capacity
	// drops below the cached file's size and pressure evicts it.
	node.Memory.TryAcquire(cluster.MemoryMB(6 * units.GiB))
	if pc.Lookup(big) {
		t.Error("page cache survived memory pressure; Broadband would not be memory-limited")
	}
	node.Memory.Release(cluster.MemoryMB(6 * units.GiB))
}

func TestPageCacheSkipsOversizedFiles(t *testing.T) {
	wf := newFiles()
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, _ := cluster.New(e, net, rng.New(7), cluster.Config{Workers: 1, WorkerType: cluster.C1XLarge()})
	pc := c.Workers[0].Cache
	huge := wf("huge", 100*units.GB)
	pc.Insert(huge)
	if pc.Size() != 0 {
		t.Error("oversized file was cached")
	}
}

func TestNFSReadCrossesServerNIC(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewNFS(), 2)
	f := wf("input", 1.2*units.GB)
	r.sys.PreStage([]*workflow.File{f})
	took := r.timed(func(p *sim.Proc) {
		r.sys.Read(p, r.c.Workers[0], f)
	})
	// Pre-staged files are warm in the 16 GB server cache, so the read
	// moves at the server's effective rate: 120 MB/s degraded by the
	// 2-client incast factor (1.30) -> 1.2 GB / 92.3 MB/s = 13 s.
	want := 1.2 * units.GB / (120 * units.MB / 1.30)
	if math.Abs(took-want) > 0.5 {
		t.Errorf("NFS cached read took %.2f s, want ~%.1f (server-path bound)", took, want)
	}
	if r.sys.Stats().ServerCacheHits != 1 {
		t.Errorf("server cache hits = %d, want 1", r.sys.Stats().ServerCacheHits)
	}
}

func TestNFSAsyncWriteFasterThanSync(t *testing.T) {
	wf := newFiles()
	asyncRig := newRig(t, NewNFS(), 1)
	f1 := wf("out", 600*units.MB)
	asyncTook := asyncRig.timed(func(p *sim.Proc) {
		asyncRig.sys.Write(p, asyncRig.c.Workers[0], f1)
	})
	syncRig := newRig(t, NewNFSSync(), 1)
	f2 := wf("out", 600*units.MB)
	syncTook := syncRig.timed(func(p *sim.Proc) {
		syncRig.sys.Write(p, syncRig.c.Workers[0], f2)
	})
	// Async lands in server memory at NIC speed (5 s); sync waits for the
	// server's uninitialized disk (80 MB/s -> 7.5 s, gated by NIC too).
	if asyncTook >= syncTook {
		t.Errorf("async write (%.2f s) not faster than sync (%.2f s)", asyncTook, syncTook)
	}
	if math.Abs(asyncTook-5) > 0.5 {
		t.Errorf("async write took %.2f s, want ~5 (NIC-bound)", asyncTook)
	}
}

func TestNFSManyClientsContendOnServer(t *testing.T) {
	wf := newFiles()
	makespan := func(workers int) float64 {
		r := newRig(t, NewNFS(), workers)
		files := make([]*workflow.File, workers)
		for i := range files {
			files[i] = wf(fileName(i), 600*units.MB)
		}
		r.sys.PreStage(files)
		for i, n := range r.c.Workers {
			i, n := i, n
			r.e.Go("reader", func(p *sim.Proc) { r.sys.Read(p, n, files[i]) })
		}
		r.e.Run()
		return r.e.Now()
	}
	one, four := makespan(1), makespan(4)
	// 4x the data through one server plus the incast degradation
	// (1.9/1.0): super-linear collapse, the paper's Broadband-on-NFS
	// story in miniature.
	if ratio := four / one; ratio < 4.5 || ratio > 9 {
		t.Errorf("4-client/1-client NFS read makespan ratio = %.2f, want ~7.6 (incast collapse)", ratio)
	}
}

func fileName(i int) string { return "f" + string(rune('a'+i)) }

func TestGlusterNUFAWritesLocally(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewGluster(NUFA), 2)
	f := wf("out", 800*units.MB)
	took := r.timed(func(p *sim.Proc) {
		r.sys.Write(p, r.c.Workers[0], f)
	})
	// Local RAID0 first write at 80 MB/s: no NIC involvement.
	if math.Abs(took-10) > 0.1 {
		t.Errorf("NUFA write took %.2f s, want ~10 (local disk only)", took)
	}
	if r.sys.Stats().NetworkBytes != 0 {
		t.Errorf("NUFA write moved %.0f network bytes, want 0", r.sys.Stats().NetworkBytes)
	}
}

func TestGlusterNUFARemoteReadCrossesNetwork(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewGluster(NUFA), 2)
	f := wf("out", 1.2*units.GB)
	r.e.Go("writer", func(p *sim.Proc) {
		r.sys.Write(p, r.c.Workers[0], f)
		// Reader on the other node: owner disk read + both NICs.
		r.sys.Read(p, r.c.Workers[1], f)
	})
	r.e.Run()
	st := r.sys.Stats()
	if st.NetworkBytes != 1.2*units.GB {
		t.Errorf("remote read network bytes = %s, want 1.2 GB", units.Bytes(st.NetworkBytes))
	}
}

func TestGlusterDistributePlacementByHash(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewGluster(Distribute), 4)
	g := r.sys.(*Gluster)
	// Hash placement must be stable and spread across nodes.
	counts := make(map[*cluster.Node]int)
	r.e.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			f := wf("file-"+string(rune('a'+i%26))+string(rune('0'+i/26)), units.MB)
			r.sys.Write(p, r.c.Workers[0], f)
			counts[g.Owner(f)]++
		}
	})
	r.e.Run()
	if len(counts) < 3 {
		t.Errorf("hash placement used only %d of 4 nodes", len(counts))
	}
	if st := r.sys.Stats(); st.NetworkBytes == 0 {
		t.Error("distribute-mode writes from one node moved no network bytes; placement not remote")
	}
}

func TestGlusterRequiresTwoNodes(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, _ := cluster.New(e, net, rng.New(7), cluster.Config{Workers: 1, WorkerType: cluster.C1XLarge()})
	sys := NewGluster(NUFA)
	if err := sys.Init(&Env{E: e, Net: net, Workers: c.Workers, R: rng.New(1)}); err == nil {
		t.Error("GlusterFS accepted a 1-node cluster; the paper needs >=2")
	}
}

func TestGlusterReadUnknownFilePanics(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewGluster(NUFA), 2)
	r.e.Go("reader", func(p *sim.Proc) {
		r.sys.Read(p, r.c.Workers[0], wf("ghost", units.MB))
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading a never-written file")
		}
	}()
	r.e.Run()
}

// TestUninternedFilePanics: every system keys its per-file state by the
// file's dense index, so a file no workflow interned (index 0) must
// panic on write and on read rather than share a slot with every other
// such file.
func TestUninternedFilePanics(t *testing.T) {
	for _, name := range Names() {
		for _, write := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/write=%v", name, write), func(t *testing.T) {
				sys, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				workers := 2
				if CheckWorkers(name, workers) != nil {
					workers = 1
				}
				r := newRig(t, sys, workers)
				loose := &workflow.File{Name: "loose", Size: units.MB}
				r.e.Go("client", func(p *sim.Proc) {
					if write {
						r.sys.Write(p, r.c.Workers[0], loose)
					} else {
						r.sys.Read(p, r.c.Workers[0], loose)
					}
				})
				defer func() {
					if v := recover(); !strings.Contains(fmt.Sprint(v), "interned") {
						t.Fatalf("access to an un-interned file: panic %v, want one naming it un-interned", v)
					}
				}()
				r.e.Run()
			})
		}
	}
}

func TestPVFSSingleReaderCappedByClientWindow(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewPVFS(), 4)
	f := wf("big", 2*units.GB)
	r.sys.PreStage([]*workflow.File{f})
	took := r.timed(func(p *sim.Proc) {
		r.sys.Read(p, r.c.Workers[0], f)
	})
	// One descriptor moves at the client window rate: 2 GB / 25 MB/s.
	want := 2 * units.GB / (25 * units.MB)
	if math.Abs(took-want) > 2 {
		t.Errorf("striped 2 GB read took %.1f s, want ~%.1f (client window bound)", took, want)
	}
}

func TestPVFSConcurrentReadersScaleAcrossServers(t *testing.T) {
	wf := newFiles()
	// Different clients have independent windows, and stripes spread the
	// load over every server: four concurrent 2 GB reads finish together
	// in roughly the single-read time, not 4x it.
	r := newRig(t, NewPVFS(), 4)
	files := make([]*workflow.File, 4)
	for i := range files {
		files[i] = wf(fileName(i), 2*units.GB)
	}
	r.sys.PreStage(files)
	for i, n := range r.c.Workers {
		i, n := i, n
		r.e.Go("reader", func(p *sim.Proc) { r.sys.Read(p, n, files[i]) })
	}
	r.e.Run()
	single := 2 * units.GB / (25 * units.MB)
	if r.e.Now() > single*1.6 {
		t.Errorf("4 concurrent striped reads took %.1f s, want ~%.1f (server-side parallelism)",
			r.e.Now(), single)
	}
}

func TestPVFSSmallFilePenaltyDominates(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewPVFS(), 2)
	small := wf("small", 100*units.KB)
	took := r.timed(func(p *sim.Proc) {
		r.sys.Write(p, r.c.Workers[0], small)
		r.sys.Read(p, r.c.Workers[1], small)
	})
	// Almost all of the time must be the fixed metadata latencies, not
	// the 100 KB payload.
	if took < pvfsCreateLatency+pvfsOpenLatency {
		t.Errorf("small-file ops took %.3f s, less than metadata floor", took)
	}
	if took > 3*(pvfsCreateLatency+pvfsOpenLatency) {
		t.Errorf("small-file ops took %.3f s; payload should be negligible", took)
	}
}

func TestS3CachePreventsRepeatGETs(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewS3(), 2)
	f := wf("input", 10*units.MB)
	r.sys.PreStage([]*workflow.File{f})
	n0 := r.c.Workers[0]
	r.e.Go("reader", func(p *sim.Proc) {
		r.sys.Read(p, n0, f)
		r.sys.Read(p, n0, f)             // same node: served from the client cache
		r.sys.Read(p, r.c.Workers[1], f) // different node: one more GET
	})
	r.e.Run()
	st := r.sys.Stats()
	if st.Gets != 2 {
		t.Errorf("GETs = %d, want 2 (once per node)", st.Gets)
	}
	if st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", st.CacheHits)
	}
}

func TestS3NoCacheRepeatsGETs(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewS3NoCache(), 1)
	f := wf("input", 10*units.MB)
	r.sys.PreStage([]*workflow.File{f})
	r.e.Go("reader", func(p *sim.Proc) {
		r.sys.Read(p, r.c.Workers[0], f)
		r.sys.Read(p, r.c.Workers[0], f)
	})
	r.e.Run()
	if st := r.sys.Stats(); st.Gets != 2 {
		t.Errorf("GETs = %d, want 2 without the client cache", st.Gets)
	}
}

func TestS3WriteUploadsAndCounts(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewS3(), 1)
	f := wf("out", 50*units.MB)
	took := r.timed(func(p *sim.Proc) {
		r.sys.Write(p, r.c.Workers[0], f)
	})
	st := r.sys.Stats()
	if st.Puts != 1 {
		t.Errorf("PUTs = %d, want 1", st.Puts)
	}
	if st.BytesUploaded != 50*units.MB {
		t.Errorf("uploaded = %s, want 50 MB", units.Bytes(st.BytesUploaded))
	}
	// Disk write (50/80 = 0.625 s) + upload at the 25 MB/s connection cap
	// (2 s) + PUT latency.
	want := 0.625 + 2 + s3PutLatency
	if math.Abs(took-want) > 0.2 {
		t.Errorf("S3 write took %.2f s, want ~%.2f (double write + capped upload)", took, want)
	}
}

func TestS3ReadOfUnstagedObjectPanics(t *testing.T) {
	wf := newFiles()
	r := newRig(t, NewS3(), 1)
	r.e.Go("reader", func(p *sim.Proc) {
		r.sys.Read(p, r.c.Workers[0], wf("ghost", units.MB))
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for GET of missing object")
		}
	}()
	r.e.Run()
}

func TestXtreemFSMuchSlowerPerOp(t *testing.T) {
	wf := newFiles()
	x := newRig(t, NewXtreemFS(), 2)
	g := newRig(t, NewGluster(NUFA), 2)
	small := wf("s", units.MB)
	xt := x.timed(func(p *sim.Proc) { x.sys.Write(p, x.c.Workers[0], small) })
	small2 := wf("s", units.MB)
	gt := g.timed(func(p *sim.Proc) { g.sys.Write(p, g.c.Workers[0], small2) })
	if xt < 5*gt {
		t.Errorf("XtreemFS small write (%.3f s) not >5x GlusterFS (%.3f s)", xt, gt)
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range Names() {
		sys, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
			continue
		}
		if sys.Name() != name {
			t.Errorf("ByName(%s).Name() = %s", name, sys.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("expected error for unknown system")
	}
	if len(PaperSystems()) != 5 {
		t.Errorf("PaperSystems = %d entries, want the paper's 5", len(PaperSystems()))
	}
}

// TestCheckWorkers pins the catalog's worker bounds: GlusterFS and PVFS
// need two nodes, local disk runs on exactly one, the rest on any
// positive count. Init enforces the same rule.
func TestCheckWorkers(t *testing.T) {
	cases := []struct {
		sys     string
		workers int
		ok      bool
	}{
		{"local", 1, true},
		{"local", 2, false},
		{"gluster-nufa", 1, false},
		{"gluster-nufa", 2, true},
		{"gluster-dist", 1, false},
		{"pvfs", 1, false},
		{"pvfs", 128, true},
		{"s3", 1, true},
		{"nfs", 1, true},
		{"nfs", 0, false},
		{"xtreemfs", 1, true},
	}
	for _, c := range cases {
		err := CheckWorkers(c.sys, c.workers)
		if c.ok {
			if err != nil {
				t.Errorf("CheckWorkers(%s, %d) = %v, want nil", c.sys, c.workers, err)
			}
			continue
		}
		var we *WorkersError
		if !errors.As(err, &we) || we.System != c.sys || we.Workers != c.workers {
			t.Errorf("CheckWorkers(%s, %d) = %v, want a *WorkersError for it", c.sys, c.workers, err)
		}
	}
	if err := CheckWorkers("nope", 4); err == nil {
		t.Error("CheckWorkers accepted an unknown system")
	}
	if got, want := CheckWorkers("gluster-nufa", 1).Error(),
		"storage: gluster-nufa requires at least 2 workers, got 1"; got != want {
		t.Errorf("error = %q, want %q", got, want)
	}
	if !sort.StringsAreSorted(Names()) {
		t.Errorf("Names() not sorted: %v", Names())
	}
}

func TestFreshSystemsPerRun(t *testing.T) {
	a, _ := ByName("s3")
	b, _ := ByName("s3")
	if a == b {
		t.Error("ByName returned a shared instance; state would leak across runs")
	}
}
