// Package fx is the seedflow *Seed-field clean fixture (analyzed as
// ec2wfsim/internal/storage/fx): seed material that always arrives from
// the caller, explicit zero defaults, and the zero-guard fallback idiom.
package fx

import "ec2wfsim/internal/rng"

type Options struct {
	ChurnSeed uint64
}

func newStream(seed uint64) *rng.RNG {
	return rng.New(seed)
}

func derivedStream(seed uint64) *rng.RNG {
	return newStream(seed)
}

// The zero-guarded default is the sanctioned fallback shape.
func fill(o *Options, seed uint64) {
	o.ChurnSeed = seed
	if o.ChurnSeed == 0 {
		o.ChurnSeed = 7
	}
}

// An explicit zero in a literal means "use the default".
func zeroOptions() Options {
	return Options{ChurnSeed: 0}
}

func options(seed uint64) Options {
	return Options{ChurnSeed: seed}
}
