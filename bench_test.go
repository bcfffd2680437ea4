// Benchmarks regenerating every table and figure in the paper's
// evaluation, one benchmark per artifact (run `go test -bench=. -benchmem`):
//
//	BenchmarkTableIProfiler        Table I   application resource usage
//	BenchmarkFig2MontageGrid       Fig. 2    Montage runtime grid
//	BenchmarkFig3EpigenomeGrid     Fig. 3    Epigenome runtime grid
//	BenchmarkFig4BroadbandGrid     Fig. 4    Broadband runtime grid
//	BenchmarkFig5MontageCost       Fig. 5    Montage cost (per-hour + per-second)
//	BenchmarkFig6EpigenomeCost     Fig. 6    Epigenome cost
//	BenchmarkFig7BroadbandCost     Fig. 7    Broadband cost
//	BenchmarkDiskFirstWrite        §III.C    ephemeral first-write penalty
//	BenchmarkDiskZeroInit          §III.C    50 GB zero-initialization
//	BenchmarkXtreemFSAblation      §IV       the abandoned XtreemFS runs
//	BenchmarkS3CacheAblation       §IV.A     S3 client-cache ablation
//	BenchmarkNFSServerAblation     §V.C      m1.xlarge vs m2.4xlarge NFS server
//
// Each iteration executes the full paper-scale experiment: the grid and
// cost benchmarks sweep with SweepOptions.NoMemo, bypassing the
// process-wide cell memo, and the others call harness.Run, which has
// none. Custom metrics (reported via b.ReportMetric) carry the headline
// values so `go test -bench` output doubles as a results table.
package ec2wfsim

import (
	"testing"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/disk"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/wfprof"
)

// sweepGrid simulates one application's full figure grid per iteration,
// bypassing the process-wide cell memo, and returns the last
// iteration's results in grid order.
func sweepGrid(b *testing.B, app string) []*harness.RunResult {
	b.Helper()
	cfgs := harness.GridConfigs(app)
	var results []*harness.RunResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = harness.Sweep(cfgs, harness.SweepOptions{NoMemo: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	return results
}

// benchGrid runs one application's full figure grid per iteration and
// reports the headline series values as custom metrics.
func benchGrid(b *testing.B, app string, metricCells map[string][2]interface{}) {
	b.Helper()
	results := sweepGrid(b, app)
	for name, key := range metricCells {
		for _, r := range results {
			if r.Config.Storage == key[0].(string) && r.Config.Workers == key[1].(int) {
				b.ReportMetric(r.Makespan, name)
			}
		}
	}
}

func BenchmarkTableIProfiler(b *testing.B) {
	var p wfprof.Profile
	for i := 0; i < b.N; i++ {
		for _, name := range apps.Names() {
			w, err := apps.PaperScale(name)
			if err != nil {
				b.Fatal(err)
			}
			p = wfprof.Analyze(w)
		}
	}
	b.ReportMetric(p.IOIntensity/units.MB, "io-MB/cpu-s")
}

func BenchmarkFig2MontageGrid(b *testing.B) {
	benchGrid(b, "montage", map[string][2]interface{}{
		"gluster@8-s": {"gluster-nufa", 8},
		"nfs@8-s":     {"nfs", 8},
		"s3@8-s":      {"s3", 8},
		"pvfs@8-s":    {"pvfs", 8},
	})
}

func BenchmarkFig3EpigenomeGrid(b *testing.B) {
	benchGrid(b, "epigenome", map[string][2]interface{}{
		"local@1-s":   {"local", 1},
		"gluster@8-s": {"gluster-nufa", 8},
		"s3@8-s":      {"s3", 8},
	})
}

func BenchmarkFig4BroadbandGrid(b *testing.B) {
	benchGrid(b, "broadband", map[string][2]interface{}{
		"s3@4-s":   {"s3", 4},
		"nfs@2-s":  {"nfs", 2},
		"nfs@4-s":  {"nfs", 4}, // the paper's 5363 s cell
		"nufa@4-s": {"gluster-nufa", 4},
	})
}

// benchCost reruns an application grid and reports the cheapest per-hour
// deployment, regenerating the corresponding cost figure.
func benchCost(b *testing.B, app string) {
	b.Helper()
	results := sweepGrid(b, app)
	bestHour, bestSec := 1e18, 1e18
	for _, r := range results {
		if v := r.CostHour.Total(); v < bestHour {
			bestHour = v
		}
		if v := r.CostSecond.Total(); v < bestSec {
			bestSec = v
		}
	}
	b.ReportMetric(bestHour, "cheapest-$/hr")
	b.ReportMetric(bestSec, "cheapest-$/sec")
}

func BenchmarkFig5MontageCost(b *testing.B)   { benchCost(b, "montage") }
func BenchmarkFig6EpigenomeCost(b *testing.B) { benchCost(b, "epigenome") }
func BenchmarkFig7BroadbandCost(b *testing.B) { benchCost(b, "broadband") }

func BenchmarkDiskFirstWrite(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		net := flow.NewNet(e)
		d := disk.New(net, "bench", disk.RAID0(disk.EphemeralSingle(), 4))
		e.Go("w", func(p *sim.Proc) {
			d.Write(p, 8*units.GB)
			rate = 8 * units.GB / p.Now()
		})
		e.Run()
	}
	b.ReportMetric(rate/units.MB, "first-write-MB/s")
}

func BenchmarkDiskZeroInit(b *testing.B) {
	var minutes float64
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		net := flow.NewNet(e)
		d := disk.New(net, "bench", disk.EphemeralSingle())
		e.Go("z", func(p *sim.Proc) {
			d.ZeroInitialize(p, 50*units.GB)
			minutes = p.Now() / units.Minute
		})
		e.Run()
	}
	b.ReportMetric(minutes, "zero-50GB-min")
}

func BenchmarkXtreemFSAblation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		x, err := harness.Run(harness.RunConfig{App: "montage", Storage: "xtreemfs", Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		g, err := harness.Run(harness.RunConfig{App: "montage", Storage: "gluster-nufa", Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		ratio = x.Makespan / g.Makespan
	}
	b.ReportMetric(ratio, "xtreemfs/gluster")
}

func BenchmarkS3CacheAblation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		with, err := harness.Run(harness.RunConfig{App: "broadband", Storage: "s3", Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		without, err := harness.Run(harness.RunConfig{App: "broadband", Storage: "s3-nocache", Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		ratio = without.Makespan / with.Makespan
	}
	b.ReportMetric(ratio, "nocache/cache")
}

func BenchmarkNFSServerAblation(b *testing.B) {
	var small, big float64
	for i := 0; i < b.N; i++ {
		s, err := harness.Run(harness.RunConfig{App: "broadband", Storage: "nfs", Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		g, err := harness.Run(harness.RunConfig{App: "broadband", Storage: "nfs-m2.4xlarge", Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		small, big = s.Makespan, g.Makespan
	}
	b.ReportMetric(small, "m1.xlarge-s")
	b.ReportMetric(big, "m2.4xlarge-s")
}

// Micro-benchmarks of the simulation substrate itself.

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	b.ResetTimer()
	e.After(1, tick)
	e.Run()
}

// BenchmarkProcSwitch measures one process sleep: an event scheduled and
// popped, plus a switch into the process and back to the engine.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	e.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkMaxMinFairness64Flows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		net := flow.NewNet(e)
		r := flow.NewResource("link", units.MBps(100))
		for f := 0; f < 64; f++ {
			e.Go("t", func(p *sim.Proc) { net.Transfer(p, 10*units.MB, r) })
		}
		e.Run()
	}
}

// BenchmarkStripedFanOut32 exercises the batched fan-out path the PVFS
// backend uses at the scale study's largest size: every read registers
// 32 shards under a single reallocation.
func BenchmarkStripedFanOut32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		net := flow.NewNet(e)
		disks := make([]*flow.Resource, 32)
		for j := range disks {
			disks[j] = flow.NewResource("disk", units.MBps(110))
		}
		for c := 0; c < 8; c++ {
			e.Go("reader", func(p *sim.Proc) {
				for k := 0; k < 4; k++ {
					win := net.AcquireCap("win", units.MBps(25))
					batch := net.NewBatch()
					for _, d := range disks {
						batch.Add(2*units.MB, win, d)
					}
					batch.Run(p)
					net.ReleaseCap(win)
				}
			})
		}
		e.Run()
	}
}

func BenchmarkMontageGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := apps.Montage(apps.MontageConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
