package flow

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"ec2wfsim/internal/sim"
)

// BenchmarkReallocate measures the solver against the preserved
// from-scratch oracle on the two transfer-graph shapes that dominate the
// paper's experiments. Both solve every active flow on every event with
// the same arithmetic, so the gap is the graph bookkeeping: persistent
// membership lists instead of per-solve rebuilt ones, a live-resource
// set instead of a per-solve walk over every flow–resource link, the
// completion ETA taken while fixing rates, batched fan-outs and pooled
// records.
//
//   - pvfs: every logical read fans out over all servers' disks and NICs
//     under a shared client window — one densely connected component,
//     where the win comes from batching the fan-out (one solve per read
//     instead of one per shard) and from the pooled records.
//   - montage: many clients hammering one NFS server interleaved with
//     node-local disk I/O — the local transfers form singleton components
//     that each solve visits alongside the server clique, a handful of
//     extra incidences per event.
//
// TestEmitFlowBench (-flowbench-out) records the comparison in
// BENCH_flow.json so the performance trajectory has data points.

// pvfsShape runs C clients each performing K sequential reads striped
// over N servers (shards cross the shared window cap, the server disk,
// the server NIC and the client NIC).
const (
	pvfsServers = 8
	pvfsClients = 12
)

// pvfsTopo is the static pvfs topology — capacities plus each client's
// stripe index lists — built once at init so every benchmark iteration
// charges the drivers for solving, not for rebuilding topology (which
// would add the same constant to every mode's ns/op and dilute their
// ratios). Read-only after init; parallel subtests share it safely.
var pvfsTopo = func() (t struct {
	caps   []float64
	shards [][][]int
}) {
	for i := 0; i < pvfsServers; i++ {
		t.caps = append(t.caps, 110e6) // server disk read channel
	}
	for i := 0; i < pvfsServers; i++ {
		t.caps = append(t.caps, 1000e6) // server NIC out
	}
	for i := 0; i < pvfsClients; i++ {
		t.caps = append(t.caps, 1000e6) // client NIC in
	}
	t.shards = make([][][]int, pvfsClients)
	for c := 0; c < pvfsClients; c++ {
		t.shards[c] = make([][]int, pvfsServers)
		for j := 0; j < pvfsServers; j++ {
			t.shards[c][j] = []int{j, pvfsServers + j, 2*pvfsServers + c}
		}
	}
	return t
}()

// pvfsShape runs C clients each performing K sequential reads striped
// over N servers (shards cross the shared window cap, the server disk,
// the server NIC and the client NIC).
func pvfsShape(build func(e *sim.Engine, caps []float64) flowDriver) float64 {
	const (
		nReads   = 5
		fileSize = 64e6
		winRate  = 25e6
	)
	e := sim.NewEngine()
	d := build(e, pvfsTopo.caps)
	for c := 0; c < pvfsClients; c++ {
		c := c
		e.Go("client", func(p *sim.Proc) {
			p.Sleep(0.05 * float64(c)) // stagger arrivals
			for k := 0; k < nReads; k++ {
				d.fanout(p, fileSize/pvfsServers, pvfsTopo.shards[c], winRate)
			}
		})
	}
	e.Run()
	return e.Now()
}

// montageShape runs C clients alternating NFS-server reads (one shared
// server egress resource) with node-local disk writes (per-client
// singleton components).
func montageShape(build func(e *sim.Engine, caps []float64) flowDriver) float64 {
	const (
		nClients = 12
		nOps     = 10
		readSize = 4e6
		locSize  = 2e6
	)
	var caps []float64
	caps = append(caps, 130e6) // NFS server egress
	for i := 0; i < nClients; i++ {
		caps = append(caps, 1000e6) // client NIC in
	}
	for i := 0; i < nClients; i++ {
		caps = append(caps, 80e6) // client local disk write channel
	}
	e := sim.NewEngine()
	d := build(e, caps)
	for c := 0; c < nClients; c++ {
		c := c
		e.Go("client", func(p *sim.Proc) {
			p.Sleep(0.02 * float64(c))
			for k := 0; k < nOps; k++ {
				d.transfer(p, readSize, []int{0, 1 + c})
				d.transfer(p, locSize, []int{1 + nClients + c})
			}
		})
	}
	e.Run()
	return e.Now()
}

// scale1000Shape is the 1000-node single-cell scale smoke: a cluster of
// 1000 colocated client/server nodes where each client performs striped
// reads over a 16-server stripe set (stride 61 is coprime to 1000, so
// the 16 servers of one read are distinct and neighbouring clients'
// stripe sets interlock into one large component). Arrivals stagger so
// roughly a thousand transfers are concurrently active — too many for the
// oracle, which re-solves once per shard, so only the solver runs it.
// Every window cap has the same capacity and shard count, so most
// bottleneck scans meet many exactly equal shares and pay the solver's
// first-seen tie check on each; the real 1000-node cells do not.
func scale1000Shape(build func(e *sim.Engine, caps []float64) flowDriver) float64 {
	const (
		nNodes   = 1000
		nStripe  = 16
		nReads   = 2
		fileSize = 64e6
		winRate  = 25e6
	)
	var caps []float64
	for i := 0; i < nNodes; i++ {
		caps = append(caps, 110e6) // server disk read channel
	}
	for i := 0; i < nNodes; i++ {
		caps = append(caps, 1000e6) // server NIC out
	}
	for i := 0; i < nNodes; i++ {
		caps = append(caps, 1000e6) // client NIC in
	}
	e := sim.NewEngine()
	d := build(e, caps)
	for c := 0; c < nNodes; c++ {
		c := c
		e.Go("client", func(p *sim.Proc) {
			p.Sleep(0.05 * float64(c))
			shards := make([][]int, nStripe)
			for k := 0; k < nReads; k++ {
				for j := 0; j < nStripe; j++ {
					s := (c*17 + j*61) % nNodes
					shards[j] = []int{s, nNodes + s, 2*nNodes + c}
				}
				d.fanout(p, fileSize/nStripe, shards, winRate)
			}
		})
	}
	e.Run()
	return e.Now()
}

var flowShapes = []struct {
	name string
	run  func(build func(e *sim.Engine, caps []float64) flowDriver) float64
}{
	{"pvfs", pvfsShape},
	{"montage", montageShape},
}

func buildSolver(e *sim.Engine, caps []float64) flowDriver { return newRealDriver(e, caps) }
func buildOracle(e *sim.Engine, caps []float64) flowDriver { return newOracleDriver(e, caps) }

// TestShapesAgree pins the solver and the oracle to bit-identical
// makespans on the benchmark shapes, so the speedup comparison is apples
// to apples.
func TestShapesAgree(t *testing.T) {
	t.Parallel()
	for _, shape := range flowShapes {
		got := shape.run(buildSolver)
		orc := shape.run(buildOracle)
		if got != orc {
			t.Errorf("%s: makespan diverged: solver %v, oracle %v", shape.name, got, orc)
		}
	}
}

// TestScale1000Smoke pins the 1000-node shape to a plausible, reproducible
// makespan.
func TestScale1000Smoke(t *testing.T) {
	t.Parallel()
	got := scale1000Shape(buildSolver)
	if again := scale1000Shape(buildSolver); again != got {
		t.Fatalf("1000-node makespan not deterministic: %v vs %v", got, again)
	}
	// The last client arrives at 49.95s and its reads need over 5s of
	// transfer time even uncontended; anything below that means work
	// was dropped.
	if got < 55 || got > 1e5 {
		t.Fatalf("1000-node makespan %v outside plausible range", got)
	}
}

func BenchmarkReallocate(b *testing.B) {
	for _, shape := range flowShapes {
		b.Run(shape.name+"/solver", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shape.run(buildSolver)
			}
		})
		b.Run(shape.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shape.run(buildOracle)
			}
		})
	}
	b.Run("scale1000/solver", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scale1000Shape(buildSolver)
		}
	})
}

var flowBenchOut = flag.String("flowbench-out", "",
	"write BenchmarkReallocate solver-vs-oracle results to this JSON file")

// flowBenchRow is one shape's comparison in BENCH_flow.json. The scale1000
// row is solver-only (the oracle cannot afford the shape), so its oracle
// and speedup fields stay zero.
type flowBenchRow struct {
	Shape         string  `json:"shape"`
	SolverNsOp    int64   `json:"solver_ns_op"`
	OracleNsOp    int64   `json:"oracle_ns_op,omitempty"`
	Speedup       float64 `json:"speedup,omitempty"`
	SolverAllocs  int64   `json:"solver_allocs_op"`
	OracleAllocs  int64   `json:"oracle_allocs_op,omitempty"`
	SolverBytesOp int64   `json:"solver_bytes_op"`
	OracleBytesOp int64   `json:"oracle_bytes_op,omitempty"`
}

// benchMedian runs each measurement function five times in interleaved
// rounds (f0 f1 f2, f0 f1 f2, ...) and returns, per function, the run
// with the median ns/op. Interleaving makes slow clock drift on a busy
// host land on every driver equally instead of biasing the ratios, and
// the median discards the rounds a neighbour stole the core.
func benchMedian(fs ...func(b *testing.B)) []testing.BenchmarkResult {
	const rounds = 5
	rs := make([][]testing.BenchmarkResult, len(fs))
	for round := 0; round < rounds; round++ {
		for i, f := range fs {
			// Settle the heap target between measurements so one
			// driver's garbage is not charged to the next driver's run.
			runtime.GC()
			rs[i] = append(rs[i], testing.Benchmark(f))
		}
	}
	med := make([]testing.BenchmarkResult, len(fs))
	for i, runs := range rs {
		sortedIdx := make([]int, rounds)
		for j := range sortedIdx {
			sortedIdx[j] = j
		}
		for a := 0; a < len(sortedIdx); a++ {
			for b := a + 1; b < len(sortedIdx); b++ {
				if runs[sortedIdx[b]].NsPerOp() < runs[sortedIdx[a]].NsPerOp() {
					sortedIdx[a], sortedIdx[b] = sortedIdx[b], sortedIdx[a]
				}
			}
		}
		med[i] = runs[sortedIdx[rounds/2]]
	}
	return med
}

// TestEmitFlowBench runs the reallocation benchmarks and records the
// comparison. It only runs when -flowbench-out is set:
//
//	go test -run TestEmitFlowBench ./internal/flow -args -flowbench-out=../../BENCH_flow.json
func TestEmitFlowBench(t *testing.T) {
	if *flowBenchOut == "" {
		t.Skip("-flowbench-out not set")
	}
	out := struct {
		Benchmark string         `json:"benchmark"`
		Note      string         `json:"note"`
		HostCPUs  int            `json:"host_cpus"`
		Rows      []flowBenchRow `json:"rows"`
	}{
		Benchmark: "BenchmarkReallocate",
		HostCPUs:  runtime.NumCPU(),
		Note: "one-pass solver from the live-resource set over persistent membership " +
			"lists vs preserved from-scratch oracle; median of 5 interleaved runs per " +
			"mode; see internal/flow/flowbench_test.go. scale1000 runs the solver only.",
	}
	for _, shape := range flowShapes {
		med := benchMedian(
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					shape.run(buildSolver)
				}
			},
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					shape.run(buildOracle)
				}
			},
		)
		sol, orc := med[0], med[1]
		row := flowBenchRow{
			Shape:         shape.name,
			SolverNsOp:    sol.NsPerOp(),
			OracleNsOp:    orc.NsPerOp(),
			Speedup:       float64(orc.NsPerOp()) / float64(sol.NsPerOp()),
			SolverAllocs:  sol.AllocsPerOp(),
			OracleAllocs:  orc.AllocsPerOp(),
			SolverBytesOp: sol.AllocedBytesPerOp(),
			OracleBytesOp: orc.AllocedBytesPerOp(),
		}
		out.Rows = append(out.Rows, row)
		t.Logf("%s: solver %d ns/op (%.2fx), oracle %d ns/op",
			row.Shape, row.SolverNsOp, row.Speedup, row.OracleNsOp)
	}
	s1000 := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scale1000Shape(buildSolver)
		}
	})[0]
	out.Rows = append(out.Rows, flowBenchRow{
		Shape:         "scale1000",
		SolverNsOp:    s1000.NsPerOp(),
		SolverAllocs:  s1000.AllocsPerOp(),
		SolverBytesOp: s1000.AllocedBytesPerOp(),
	})
	t.Logf("scale1000: solver %d ns/op (%d allocs)", s1000.NsPerOp(), s1000.AllocsPerOp())
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*flowBenchOut, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *flowBenchOut)
}
