package storage

import (
	"fmt"
	"testing"
	"testing/quick"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// checkArbitraryWorkload asserts that a storage system survives an
// arbitrary write-once/read-many operation sequence from concurrent
// clients without deadlock, that the simulation clock only moves
// forward, and that the op counters add up. It is shared by the
// testing/quick property below and the native fuzz target.
func checkArbitraryWorkload(sysName string, seed uint64, opsRaw []uint16) error {
	if len(opsRaw) > 60 {
		opsRaw = opsRaw[:60]
	}
	sys, err := ByName(sysName)
	if err != nil {
		return err
	}
	// Two workers make the clients concurrent; local runs on one.
	workers := 2
	if CheckWorkers(sysName, workers) != nil {
		workers = 1
	}
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := cluster.New(e, net, rng.New(seed), cluster.Config{
		Workers:    workers,
		WorkerType: cluster.C1XLarge(),
		Extra:      sys.ExtraNodeTypes(),
	})
	if err != nil {
		return err
	}
	env := &Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(seed + 1)}
	if err := sys.Init(env); err != nil {
		return err
	}

	// Pre-stage a pool of inputs; generated ops write new files and read
	// files guaranteed to exist: the staged pool plus the same client's
	// earlier writes (write-once semantics with no cross-client
	// read-before-write races).
	r := rng.New(seed + 2)
	files := workflow.New("ops")
	var staged []*workflow.File
	for i := 0; i < 4; i++ {
		staged = append(staged, files.File(fmt.Sprintf("in-%d", i), float64(r.Intn(50)+1)*units.MB))
	}
	sys.PreStage(staged)

	var wantReads, wantWrites int64
	nextID := 0
	// Spread the ops across the workers as concurrent client processes.
	perWorker := make([][]uint16, workers)
	for i, op := range opsRaw {
		perWorker[i%workers] = append(perWorker[i%workers], op)
	}
	for wi, ops := range perWorker {
		node := c.Workers[wi]
		// Precompute the op plan so expected counters are known
		// deterministically before the simulation runs.
		type plannedOp struct {
			read bool
			f    *workflow.File
		}
		readable := append([]*workflow.File{}, staged...)
		var plan []plannedOp
		for _, op := range ops {
			if op%2 == 0 {
				f := files.File(fmt.Sprintf("out-%d", nextID), float64(op%2048+1)*units.KB)
				nextID++
				readable = append(readable, f)
				plan = append(plan, plannedOp{read: false, f: f})
				wantWrites++
			} else {
				plan = append(plan, plannedOp{read: true, f: readable[int(op)%len(readable)]})
				wantReads++
			}
		}
		e.Go("client", func(p *sim.Proc) {
			last := p.Now()
			for _, po := range plan {
				if po.read {
					sys.Read(p, node, po.f)
				} else {
					sys.Write(p, node, po.f)
				}
				if p.Now() < last {
					panic("time went backwards")
				}
				last = p.Now()
			}
		})
	}
	e.Run()
	st := sys.Stats()
	if st.Reads != wantReads || st.Writes != wantWrites {
		return fmt.Errorf("%s: counters reads=%d writes=%d, want reads=%d writes=%d",
			sysName, st.Reads, st.Writes, wantReads, wantWrites)
	}
	return nil
}

// Property: every storage system handles arbitrary workloads (see
// checkArbitraryWorkload).
func TestPropertyStorageSystemsHandleArbitraryWorkloads(t *testing.T) {
	for _, sysName := range Names() {
		sysName := sysName
		t.Run(sysName, func(t *testing.T) {
			f := func(seed uint64, opsRaw []uint16) bool {
				return checkArbitraryWorkload(sysName, seed, opsRaw) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzStorageOps is the native-fuzzing face of the same property, with a
// seed corpus that steers coverage into the striped and hash-placed
// paths: GlusterFS NUFA (local-first placement), GlusterFS distribute
// (hash placement), and PVFS (64 KB stripes over every node — reads of
// odd sizes exercise partial final stripes). Each ops byte pair becomes
// one client operation: even ops write a fresh file whose size the op
// also picks, odd ops re-read a random existing file.
func FuzzStorageOps(f *testing.F) {
	systems := Names()
	sysIndex := func(name string) uint8 {
		for i, n := range systems {
			if n == name {
				return uint8(i)
			}
		}
		f.Fatalf("unknown seed system %q", name)
		return 0
	}
	// Mixed read/write bursts per target system. 0x?1/odd bytes read,
	// even write; sizes up to 2 MB via op%2048 KB.
	corpus := []struct {
		sys  string
		seed uint64
		ops  []byte
	}{
		{"gluster-nufa", 1, []byte{0x00, 0x02, 0x01, 0x01, 0x07, 0xff, 0x10, 0x00}},
		{"gluster-nufa", 42, []byte{0x7f, 0xfe, 0x00, 0x01, 0x03, 0x03, 0x00, 0x00, 0x01, 0x0f}},
		{"gluster-dist", 7, []byte{0x00, 0x02, 0x01, 0x01, 0x07, 0xff, 0x10, 0x00}},
		{"gluster-dist", 99, []byte{0x04, 0x00, 0x05, 0x01, 0x06, 0x02, 0x07, 0x03, 0x01, 0x01}},
		{"pvfs", 3, []byte{0x00, 0x40, 0x01, 0x01, 0x3f, 0xff, 0x00, 0x41}},
		{"pvfs", 11, []byte{0x07, 0xfe, 0x00, 0x01, 0x00, 0x03, 0x01, 0x0b, 0x02, 0x00}},
		{"nfs", 5, []byte{0x00, 0x02, 0x01, 0x01}},
		{"s3", 5, []byte{0x00, 0x02, 0x01, 0x01, 0x01, 0x03}},
		{"local", 5, []byte{0x00, 0x02, 0x01, 0x01}},
		{"xtreemfs", 5, []byte{0x00, 0x02, 0x01, 0x01}},
	}
	for _, c := range corpus {
		f.Add(sysIndex(c.sys), c.seed, c.ops)
	}
	f.Fuzz(func(t *testing.T, sysIdx uint8, seed uint64, opsBytes []byte) {
		sysName := systems[int(sysIdx)%len(systems)]
		ops := make([]uint16, 0, len(opsBytes)/2)
		for i := 0; i+1 < len(opsBytes); i += 2 {
			ops = append(ops, uint16(opsBytes[i])<<8|uint16(opsBytes[i+1]))
		}
		if err := checkArbitraryWorkload(sysName, seed, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: for POSIX systems with page caches, re-reading the same file
// on the same node is never slower than the first read.
func TestPropertyRereadNeverSlower(t *testing.T) {
	for _, sysName := range []string{"local", "nfs", "gluster-nufa", "gluster-dist", "s3"} {
		sysName := sysName
		t.Run(sysName, func(t *testing.T) {
			f := func(sizeRaw uint16) bool {
				sys, _ := ByName(sysName)
				workers := 2
				if sysName == "local" {
					workers = 1
				}
				e := sim.NewEngine()
				net := flow.NewNet(e)
				c, err := cluster.New(e, net, rng.New(3), cluster.Config{
					Workers:    workers,
					WorkerType: cluster.C1XLarge(),
					Extra:      sys.ExtraNodeTypes(),
				})
				if err != nil {
					return false
				}
				env := &Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(4)}
				if err := sys.Init(env); err != nil {
					return false
				}
				file := workflow.New("reread").File("data", float64(sizeRaw%2000+1)*units.MB)
				sys.PreStage([]*workflow.File{file})
				ok := true
				e.Go("reader", func(p *sim.Proc) {
					start := p.Now()
					sys.Read(p, c.Workers[0], file)
					firstRead := p.Now() - start
					start = p.Now()
					sys.Read(p, c.Workers[0], file)
					if p.Now()-start > firstRead+1e-9 {
						ok = false
					}
				})
				e.Run()
				return ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Error(err)
			}
		})
	}
}
