// Package fx is the seedflow *Seed-field fixture (analyzed as
// ec2wfsim/internal/wms/fx, a simulation package that is not a seed
// owner): constants written into *Seed fields of module structs.
package fx

// Options carries a *Seed field of a simulation-package struct.
type Options struct {
	FailureSeed uint64
	Workers     int
}

var defaultOptions = Options{FailureSeed: 3} // want `constant seed 3 assigned to fx\.FailureSeed`

func fixedOptions() Options {
	return Options{FailureSeed: 7, Workers: 4} // want `constant seed 7 assigned to fx\.FailureSeed`
}

func overrideSeed(o *Options) {
	o.FailureSeed = 99 // want `constant seed 99 assigned to fx\.FailureSeed: .*if x\.FailureSeed == 0`
}

// A constant outside the zero guard is still a fixed stream, even in a
// function that also has the guarded shape.
func guardThenOverride(o *Options) {
	if o.FailureSeed == 0 {
		o.FailureSeed = 7
	}
	o.FailureSeed = 11 // want `constant seed 11 assigned to fx\.FailureSeed`
}

// Non-seed fields take constants freely.
func sized(o *Options) {
	o.Workers = 8
}

func suppressedOverride(o *Options) {
	//wfvet:ignore seedflow calibration run pins the failure stream on purpose
	o.FailureSeed = 5
}
