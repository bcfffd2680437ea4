// Package disk models Amazon EC2 ephemeral-disk storage as observed by the
// paper (Section III.C), including the severe first-write penalty and its
// partial mitigation with Linux software RAID0.
//
// The paper's measurements on c1.xlarge:
//
//	single ephemeral disk:  ~20 MB/s first write, ~100 MB/s rewrite,
//	                        ~110 MB/s read
//	4-disk RAID0 array:     80-100 MB/s first write, 350-400 MB/s rewrite,
//	                        ~310 MB/s read
//
// Because the workflows studied are strictly write-once, every application
// write is a first write; a Disk therefore exposes its write channel at the
// first-write rate until it has been initialized (zero-filled), after which
// the steady-state rate applies. ZeroInitialize reproduces the paper's
// "42 minutes to initialize 50 GB" arithmetic exactly.
package disk

import (
	"fmt"

	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/units"
)

// Profile describes the performance of an assembled storage volume
// (either a bare ephemeral device or a RAID0 array). Rates are bytes/sec.
type Profile struct {
	Name        string
	FirstWrite  float64 // sequential write to untouched blocks
	SteadyWrite float64 // write to previously written blocks
	Read        float64 // sequential read
	Capacity    float64 // usable bytes
}

// EphemeralSingle is one bare c1.xlarge ephemeral device (422.5 GB of the
// instance's 1690 GB across 4 disks).
func EphemeralSingle() Profile {
	return Profile{
		Name:        "ephemeral",
		FirstWrite:  units.MBps(20),
		SteadyWrite: units.MBps(100),
		Read:        units.MBps(110),
		Capacity:    422.5 * units.GB,
	}
}

// RAID0 assembles n ephemeral devices into a software-RAID0 array.
// First writes scale linearly (each stripe still pays the per-device
// penalty); steady writes scale with a small software-RAID overhead; reads
// scale sub-linearly, calibrated so a 4-disk array lands on the paper's
// observed ~310 MB/s (a 0.70 efficiency).
func RAID0(dev Profile, n int) Profile {
	if n < 1 {
		panic("disk: RAID0 needs at least one device")
	}
	if n == 1 {
		return dev
	}
	f := float64(n)
	return Profile{
		Name:        fmt.Sprintf("raid0x%d(%s)", n, dev.Name),
		FirstWrite:  dev.FirstWrite * f,
		SteadyWrite: dev.SteadyWrite * f * 0.9375,
		Read:        dev.Read * f * 0.70,
		Capacity:    dev.Capacity * f,
	}
}

// Disk is a mounted volume with separate read and write bandwidth channels
// shared (max-min fairly) among concurrent accessors.
type Disk struct {
	net         *flow.Net
	profile     Profile
	read        *flow.Resource
	write       *flow.Resource
	initialized bool
	// scratch is the resource-list buffer reused across Read/Write
	// calls; safe because the flow network copies it into the transfer
	// record before the calling process can park.
	scratch []*flow.Resource
}

// New creates a disk from a profile, registering its channels with the
// flow network.
func New(net *flow.Net, name string, p Profile) *Disk {
	return &Disk{
		net:     net,
		profile: p,
		read:    flow.NewResource(name+"/read", p.Read),
		write:   flow.NewResource(name+"/write", p.FirstWrite),
	}
}

// Profile returns the disk's performance profile.
func (d *Disk) Profile() Profile { return d.profile }

// ReadResource exposes the read bandwidth channel so storage systems can
// compose it into multi-resource transfers.
func (d *Disk) ReadResource() *flow.Resource { return d.read }

// WriteResource exposes the write bandwidth channel.
func (d *Disk) WriteResource() *flow.Resource { return d.write }

// Initialized reports whether the first-write penalty has been eliminated.
func (d *Disk) Initialized() bool { return d.initialized }

// Read performs a sequential read of size bytes, additionally constrained
// by any extra resources (e.g. a NIC for remote reads).
func (d *Disk) Read(p *sim.Proc, size float64, extra ...*flow.Resource) {
	if size <= 0 {
		return
	}
	d.scratch = append(append(d.scratch[:0], d.read), extra...)
	d.net.Transfer(p, size, d.scratch...)
}

// Write performs a sequential write of size bytes at the current write
// rate (first-write unless initialized).
func (d *Disk) Write(p *sim.Proc, size float64, extra ...*flow.Resource) {
	if size <= 0 {
		return
	}
	d.scratch = append(append(d.scratch[:0], d.write), extra...)
	d.net.Transfer(p, size, d.scratch...)
}

// MarkInitialized removes the first-write penalty without simulating the
// zero-fill (used by experiments that assume pre-initialized volumes).
func (d *Disk) MarkInitialized() {
	if d.initialized {
		return
	}
	d.initialized = true
	d.net.SetResourceCapacity(d.write, d.profile.SteadyWrite)
}

// ZeroInitialize fills size bytes with zeros at the first-write rate, then
// removes the penalty. Amazon's suggested mitigation; the paper notes that
// zeroing 50 GB takes ~42 minutes, which this reproduces:
// 50e9 B / 20e6 B/s = 2500 s ≈ 41.7 min.
func (d *Disk) ZeroInitialize(p *sim.Proc, size float64) {
	if size > 0 {
		d.net.Transfer(p, size, d.write)
	}
	d.MarkInitialized()
}
