package disk

import (
	"math"
	"testing"

	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
)

func approx(t *testing.T, got, want, relTol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > relTol*want {
		t.Errorf("%s: got %g, want %g (rel tol %g)", msg, got, want, relTol)
	}
}

// The paper's Section III.C observations, encoded as assertions on the
// calibrated profiles.
func TestRAID0ProfileMatchesPaperObservations(t *testing.T) {
	raid := RAID0(EphemeralSingle(), 4)
	if raid.FirstWrite < units.MBps(80) || raid.FirstWrite > units.MBps(100) {
		t.Errorf("RAID0 first write = %s, want 80-100 MB/s", units.Rate(raid.FirstWrite))
	}
	if raid.SteadyWrite < units.MBps(350) || raid.SteadyWrite > units.MBps(400) {
		t.Errorf("RAID0 steady write = %s, want 350-400 MB/s", units.Rate(raid.SteadyWrite))
	}
	if raid.Read < units.MBps(290) || raid.Read > units.MBps(330) {
		t.Errorf("RAID0 read = %s, want ~310 MB/s", units.Rate(raid.Read))
	}
	single := EphemeralSingle()
	if single.FirstWrite != units.MBps(20) {
		t.Errorf("single first write = %s, want 20 MB/s", units.Rate(single.FirstWrite))
	}
	if single.Read != units.MBps(110) {
		t.Errorf("single read = %s, want 110 MB/s", units.Rate(single.Read))
	}
}

func TestRAID0SingleDeviceIdentity(t *testing.T) {
	dev := EphemeralSingle()
	if got := RAID0(dev, 1); got != dev {
		t.Errorf("RAID0(dev, 1) = %+v, want identity", got)
	}
}

func TestRAID0CapacityScales(t *testing.T) {
	raid := RAID0(EphemeralSingle(), 4)
	approx(t, raid.Capacity, 1690*units.GB, 0.01, "c1.xlarge total local storage")
}

// Zeroing 50 GB on a single uninitialized ephemeral disk takes ~42 minutes
// (the paper's Montage argument against pre-initialization).
func TestZeroInitialize50GBTakes42Minutes(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	d := New(net, "eph", EphemeralSingle())
	var done float64
	e.Go("init", func(p *sim.Proc) {
		d.ZeroInitialize(p, 50*units.GB)
		done = p.Now()
	})
	e.Run()
	approx(t, done/units.Minute, 41.7, 0.02, "50 GB zero-init minutes")
	if !d.Initialized() {
		t.Error("disk not marked initialized")
	}
}

func TestFirstWriteThenSteadyRate(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	d := New(net, "raid", RAID0(EphemeralSingle(), 4))
	var tFirst, tSecond float64
	e.Go("writer", func(p *sim.Proc) {
		start := p.Now()
		d.Write(p, 8*units.GB)
		tFirst = p.Now() - start
		d.MarkInitialized()
		start = p.Now()
		d.Write(p, 8*units.GB)
		tSecond = p.Now() - start
	})
	e.Run()
	// 8 GB at 80 MB/s = 100 s; at 375 MB/s = ~21.3 s.
	approx(t, tFirst, 100, 0.01, "first write 8 GB")
	approx(t, tSecond, 8e9/(375e6), 0.01, "steady write 8 GB")
	if ratio := tFirst / tSecond; ratio < 4 || ratio > 5 {
		t.Errorf("first/steady write ratio = %.2f, want 4-5x penalty", ratio)
	}
}

func TestConcurrentWritersShareDisk(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	d := New(net, "raid", RAID0(EphemeralSingle(), 4))
	finish := make([]float64, 4)
	for i := 0; i < 4; i++ {
		i := i
		e.Go("w", func(p *sim.Proc) {
			d.Write(p, 1*units.GB)
			finish[i] = p.Now()
		})
	}
	e.Run()
	// 4 GB total through an 80 MB/s channel: 50 s makespan, all equal.
	for i, f := range finish {
		approx(t, f, 50, 0.01, "concurrent writer makespan")
		if i > 0 && math.Abs(f-finish[0]) > 1e-6 {
			t.Errorf("unequal finish times: %v", finish)
		}
	}
}

func TestReadsAndWritesIndependentChannels(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	d := New(net, "raid", RAID0(EphemeralSingle(), 4))
	var tR, tW float64
	e.Go("r", func(p *sim.Proc) {
		d.Read(p, 3.08*units.GB)
		tR = p.Now()
	})
	e.Go("w", func(p *sim.Proc) {
		d.Write(p, 0.8*units.GB)
		tW = p.Now()
	})
	e.Run()
	// Read: 3.08 GB / 308 MB/s = 10 s; write: 0.8 GB / 80 MB/s = 10 s; the
	// channels do not contend with each other.
	approx(t, tR, 10, 0.01, "read channel")
	approx(t, tW, 10, 0.01, "write channel")
}

func TestRemoteReadBottleneckedByNIC(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	d := New(net, "raid", RAID0(EphemeralSingle(), 4))
	nic := flow.NewResource("nic", units.MBps(100))
	var done float64
	e.Go("r", func(p *sim.Proc) {
		d.Read(p, 1*units.GB, nic)
		done = p.Now()
	})
	e.Run()
	approx(t, done, 10, 0.01, "NIC-bound remote read")
}

func TestZeroSizeIONoTime(t *testing.T) {
	e := sim.NewEngine()
	net := flow.NewNet(e)
	d := New(net, "eph", EphemeralSingle())
	e.Go("io", func(p *sim.Proc) {
		d.Write(p, 0)
		d.Read(p, 0)
		if p.Now() != 0 {
			t.Errorf("zero-size IO advanced time to %g", p.Now())
		}
	})
	e.Run()
}

func TestRAID0RequiresDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for RAID0 with 0 devices")
		}
	}()
	RAID0(EphemeralSingle(), 0)
}
