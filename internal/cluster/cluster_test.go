package cluster

import (
	"math"
	"testing"

	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
)

func newTestCluster(t *testing.T, workers int, extra ...InstanceType) *Cluster {
	t.Helper()
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := New(e, net, rng.New(42), Config{
		Workers:    workers,
		WorkerType: C1XLarge(),
		Extra:      extra,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogMatchesPaper(t *testing.T) {
	c1 := C1XLarge()
	if c1.Cores != 8 {
		t.Errorf("c1.xlarge cores = %d, want 8", c1.Cores)
	}
	if c1.Memory != 7*units.GiB {
		t.Errorf("c1.xlarge memory = %s, want 7 GiB", units.Bytes(c1.Memory))
	}
	if c1.PricePerHour != 0.68 {
		t.Errorf("c1.xlarge price = $%.2f/h, want $0.68 (2010 list)", c1.PricePerHour)
	}
	if got := c1.DiskProfile.Capacity; math.Abs(got-1690*units.GB) > units.GB {
		t.Errorf("c1.xlarge local storage = %s, want 1690 GB", units.Bytes(got))
	}
	m1 := M1XLarge()
	if m1.Memory != 16*units.GiB {
		t.Errorf("m1.xlarge memory = %s, want 16 GiB (paper's figure)", units.Bytes(m1.Memory))
	}
	if m1.PricePerHour != 0.68 {
		t.Errorf("m1.xlarge price = $%.2f/h, want $0.68 (paper: extra NFS node costs $0.68/workflow)", m1.PricePerHour)
	}
	m2 := M24XLarge()
	if m2.Memory != 64*units.GiB || m2.Cores != 8 {
		t.Errorf("m2.4xlarge = %d cores %s, want 8 cores 64 GiB", m2.Cores, units.Bytes(m2.Memory))
	}
}

func TestClusterShape(t *testing.T) {
	c := newTestCluster(t, 4, M1XLarge())
	if len(c.Workers) != 4 {
		t.Fatalf("workers = %d, want 4", len(c.Workers))
	}
	if len(c.Extra) != 1 {
		t.Fatalf("extra nodes = %d, want 1", len(c.Extra))
	}
	if got := c.TotalCores(); got != 32 {
		t.Errorf("TotalCores = %d, want 32", got)
	}
	if got := len(c.AllNodes()); got != 5 {
		t.Errorf("AllNodes = %d, want 5", got)
	}
}

func TestProvisionTimeInBootWindow(t *testing.T) {
	c := newTestCluster(t, 8)
	// Slowest boot in [70,90] plus 10 s contextualization.
	if c.ProvisionTime < 80 || c.ProvisionTime > 100 {
		t.Errorf("ProvisionTime = %.1f s, want within [80,100]", c.ProvisionTime)
	}
	for _, n := range c.Workers {
		if n.BootDelay < 70 || n.BootDelay > 90 {
			t.Errorf("node %s boot delay %.1f outside [70,90]", n.Name, n.BootDelay)
		}
	}
}

func TestProvisionDeterministic(t *testing.T) {
	a := newTestCluster(t, 8)
	b := newTestCluster(t, 8)
	if a.ProvisionTime != b.ProvisionTime {
		t.Errorf("same seed gave different provision times: %g vs %g", a.ProvisionTime, b.ProvisionTime)
	}
}

func TestNodeResources(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Workers[0]
	wantMB := MemoryMB(7 * units.GiB)
	if n.Memory.Capacity() != wantMB {
		t.Errorf("memory capacity = %d MB, want %d", n.Memory.Capacity(), wantMB)
	}
	if n.NICIn.Capacity() != units.MBps(120) || n.NICOut.Capacity() != units.MBps(120) {
		t.Error("NIC capacities not 120 MB/s each direction")
	}
	if n.Disk.Initialized() {
		t.Error("fresh node's disk should carry the first-write penalty")
	}
}

func TestInitializeDisksRemovesPenaltyAndExtendsProvisioning(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	c, err := New(e, net, rng.New(1), Config{
		Workers:         2,
		WorkerType:      C1XLarge(),
		InitializeDisks: true,
		InitializeBytes: 50 * units.GB,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Workers {
		if !n.Disk.Initialized() {
			t.Errorf("node %s disk not initialized", n.Name)
		}
	}
	// 50 GB at the RAID0 first-write rate of 80 MB/s = 625 s extra.
	zeroTime := 50 * units.GB / (80 * units.MB)
	if c.ProvisionTime < zeroTime {
		t.Errorf("ProvisionTime %.0f s does not include %.0f s zero-fill", c.ProvisionTime, zeroTime)
	}
}

func TestMemoryMBCeiling(t *testing.T) {
	if got := MemoryMB(units.MB); got != 1 {
		t.Errorf("MemoryMB(1MB) = %d, want 1", got)
	}
	if got := MemoryMB(1.5 * units.MB); got != 2 {
		t.Errorf("MemoryMB(1.5MB) = %d, want 2 (ceiling)", got)
	}
	if got := MemoryMB(0); got != 0 {
		t.Errorf("MemoryMB(0) = %d, want 0", got)
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	if _, err := New(e, net, rng.New(1), Config{Workers: 0, WorkerType: C1XLarge()}); err == nil {
		t.Error("expected error for 0 workers")
	}
	if _, err := New(e, net, rng.New(1), Config{Workers: 1}); err == nil {
		t.Error("expected error for zero-value worker type")
	}
}
