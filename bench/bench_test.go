package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread rule the benchmark's bounds
// are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = float64(256 - i)
	}
	if got := percentile(xs, 95); got != 244 {
		t.Errorf("p95 of 1..256 = %g, want 244", got)
	}
	if got := percentile(xs, 100); got != 256 {
		t.Errorf("p100 of 1..256 = %g, want 256", got)
	}
}

// cannedTraces is `go tool pprof -traces` output trimmed to one sample
// per bucketing rule.
const cannedTraces = `File: bench
Type: cpu
Duration: 1.20s, Total samples = 1.58s (131.67%)
-----------+-------------------------------------------------------
      10ms   ec2wfsim/internal/sim.(*Engine).pushEvent (inline)
             ec2wfsim/internal/sim.(*Engine).schedule
             ec2wfsim/internal/harness.Run
             main.main
-----------+-------------------------------------------------------
      20ms   runtime.chanrecv
             runtime.chanrecv1
             ec2wfsim/internal/sim.(*Proc).Sleep
             ec2wfsim/internal/wms.(*execution).runJob
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             ec2wfsim/internal/flow.(*Net).start
             ec2wfsim/internal/sim.(*Engine).step
-----------+-------------------------------------------------------
      40ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   runtime.futex
             runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
      60ms   ec2wfsim/internal/rng.(*RNG).Float64
             ec2wfsim/internal/apps.Montage
-----------+-------------------------------------------------------
      70ms   ec2wfsim/internal/disk.(*Disk).Read
             ec2wfsim/internal/storage.(*NFS).Read
-----------+-------------------------------------------------------
      80ms   sync.(*Mutex).Lock
             ec2wfsim/internal/sweep.(*Engine[go.shape.struct { Workflow *ec2wfsim/internal/workflow.Workflow }]).MapCtx.func2 (inline)
             ec2wfsim/internal/harness.Sweep
-----------+-------------------------------------------------------
      1.2s   ec2wfsim/internal/cost.Compute
             ec2wfsim/internal/harness.Run
-----------+-------------------------------------------------------
`

func TestParseTracesBucketsByLayer(t *testing.T) {
	split, err := parseTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sim":           10 * time.Millisecond,
		"sim.handoff":   20 * time.Millisecond, // runtime leaf under sim
		"flow":          30 * time.Millisecond, // runtime helper the layer called
		"runtime.gc":    40 * time.Millisecond, // no module frame, GC worker on the stack
		"runtime.sched": 50 * time.Millisecond, // no module frame otherwise
		"apps":          60 * time.Millisecond, // rng names no layer; its caller does
		"storage":       70 * time.Millisecond, // disk folds into storage
		"sweep":         80 * time.Millisecond, // module paths inside type arguments do not count
		"harness":       1200 * time.Millisecond,
	}
	for layer, d := range want {
		if split[layer] != d {
			t.Errorf("%s: %v, want %v", layer, split[layer], d)
		}
	}
	for layer := range split {
		if !slices.Contains(layers, layer) {
			t.Errorf("sample bucketed to %q, which is not a reported layer", layer)
		}
	}
}

func TestParseTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := parseTraces("File: bench\nType: cpu\n"); err == nil {
		t.Error("a profile with no samples parsed without error")
	}
}

func TestGoldenCatchesOneULPDrift(t *testing.T) {
	want := golden{
		TableI:    []string{"TABLE I", "Montage      High    Low     Low   "},
		Montage:   []goldenCell{{Label: "local/1", Makespan: 3901.7727017801103, CostHour: 1.36, CostSecond: 0.7370015103362431}},
		Epigenome: []goldenCell{{Label: "nfs/2", Makespan: 1890.5038618501508, CostHour: 2.04, CostSecond: 1.0}},
		Broadband: []goldenCell{{Label: "s3/8", Makespan: 1000, CostHour: 5.5, CostSecond: 2.5}},
	}
	cells := slices.Concat(want.Montage, want.Epigenome, want.Broadband)
	if m := goldenMismatches(want, want.TableI, cells); len(m) != 0 {
		t.Fatalf("identical output reported as drift: %v", m)
	}
	drifted := slices.Clone(cells)
	drifted[1].Makespan = math.Nextafter(drifted[1].Makespan, math.Inf(1))
	if m := goldenMismatches(want, want.TableI, drifted); len(m) != 1 {
		t.Errorf("one-ULP makespan drift: %d mismatches %v, want 1", len(m), m)
	}
	table := slices.Clone(want.TableI)
	table[1] = "Montage      High    Low     High  "
	if m := goldenMismatches(want, table, cells); len(m) != 1 {
		t.Errorf("changed Table I row: %d mismatches %v, want 1", len(m), m)
	}
	if m := goldenMismatches(want, want.TableI, cells[:2]); len(m) != 1 {
		t.Errorf("missing cell: %d mismatches %v, want 1", len(m), m)
	}
}
