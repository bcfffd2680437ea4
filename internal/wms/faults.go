package wms

import (
	"fmt"
	"math"
)

// Defaults of the fault knobs, applied by Faults.Resolved when their
// feature is on and the knob is zero.
const (
	// DefaultMaxRetries is DAGMan's RETRY default.
	DefaultMaxRetries = 3
	// DefaultFailureSeed seeds the injection RNG, keeping failure runs
	// deterministic by default.
	DefaultFailureSeed = 0xFA11

	// DefaultOutageDuration is the mean outage length (seconds): roughly
	// an EC2 instance reboot-and-recontextualize cycle.
	DefaultOutageDuration = 120.0
	// DefaultOutageSeed seeds the outage schedule, keeping outage runs
	// deterministic by default.
	DefaultOutageSeed = 0xDEAD
)

// Faults is the fault model layered on the paper's failure-free runs:
// transient task failures, correlated node outages and
// checkpoint/restart. The zero value is the paper's setting. Validate
// and Resolved are the only code that knows the knobs' ranges and
// defaults; scenario.Spec embeds Faults, so the JSON keys are the spec
// file's.
type Faults struct {
	// FailureRate injects transient task failures with the given
	// per-attempt probability in [0, 1) (spot hiccups, OOM kills, flaky
	// NFS mounts). A failed attempt burns a random fraction of the task's
	// runtime, then DAGMan re-queues it, exactly as Condor/DAGMan retry
	// semantics work. Zero (the paper's setting) disables injection.
	FailureRate float64 `json:"failure_rate,omitempty"`
	// MaxRetries bounds failed attempts per task (DAGMan's RETRY); zero
	// means DefaultMaxRetries. It must not be negative, and is ignored at
	// FailureRate 0.
	MaxRetries int `json:"max_retries,omitempty"`
	// FailureSeed makes injection deterministic; zero means
	// DefaultFailureSeed. Ignored at FailureRate 0.
	FailureSeed uint64 `json:"failure_seed,omitempty"`

	// OutageRate injects correlated node outages at the given expected
	// rate per node per hour: the whole node drops offline (spot
	// reclamation, hardware retirement), its in-flight attempts are
	// killed and re-queued, its slots stop requesting work, and data it
	// owns is unreadable until it recovers. Zero disables outages.
	OutageRate float64 `json:"outage_rate,omitempty"`
	// OutageDuration is the mean outage length in seconds; zero means
	// DefaultOutageDuration. Ignored at OutageRate 0.
	OutageDuration float64 `json:"outage_duration,omitempty"`
	// OutageSeed makes the outage schedule deterministic; zero means
	// DefaultOutageSeed. Ignored at OutageRate 0.
	OutageSeed uint64 `json:"outage_seed,omitempty"`

	// CheckpointInterval makes tasks write a checkpoint (sized by their
	// peak memory) through the storage system every interval seconds of
	// computation, and lets a re-queued attempt resume from its last
	// checkpoint instead of from zero. Checkpoint traffic competes for
	// the same storage bandwidth the workflow's own I/O uses. Zero (the
	// paper's setting) disables checkpointing.
	CheckpointInterval float64 `json:"checkpoint_interval,omitempty"`
}

// FaultError reports a fault knob outside its range.
type FaultError struct {
	Field string  // the knob's spec JSON key, e.g. "failure_rate"
	Value float64 // the rejected value
	Want  string  // the accepted range
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("wms: %s %g is outside %s", e.Field, e.Value, e.Want)
}

// Validate checks every knob's range, whatever the rates are: a
// FailureRate in [0, 1), a non-negative MaxRetries, and finite,
// non-negative outage rates, durations and checkpoint intervals. A NaN
// or infinite value would otherwise switch a feature off silently or
// stall the simulated clock.
func (f Faults) Validate() error {
	if !(f.FailureRate >= 0 && f.FailureRate < 1) {
		return &FaultError{Field: "failure_rate", Value: f.FailureRate, Want: "[0, 1)"}
	}
	if f.MaxRetries < 0 {
		return &FaultError{Field: "max_retries", Value: float64(f.MaxRetries), Want: "[0, ∞)"}
	}
	for _, k := range []struct {
		field string
		v     float64
	}{
		{"outage_rate", f.OutageRate},
		{"outage_duration", f.OutageDuration},
		{"checkpoint_interval", f.CheckpointInterval},
	} {
		if !(k.v >= 0 && k.v <= math.MaxFloat64) {
			return &FaultError{Field: k.field, Value: k.v, Want: "[0, ∞)"}
		}
	}
	return nil
}

// Resolved returns the knobs a run uses: defaults filled in where a
// feature is on, and the fields a feature ignores zeroed where it is
// off. Configurations that resolve alike run alike, which is what lets
// cell keys render Resolved.
func (f Faults) Resolved() Faults {
	r := Faults{FailureRate: f.FailureRate, OutageRate: f.OutageRate, CheckpointInterval: f.CheckpointInterval}
	if f.FailureRate > 0 {
		r.MaxRetries, r.FailureSeed = f.MaxRetries, f.FailureSeed
		if r.MaxRetries == 0 {
			r.MaxRetries = DefaultMaxRetries
		}
		if r.FailureSeed == 0 {
			r.FailureSeed = DefaultFailureSeed
		}
	}
	if f.OutageRate > 0 {
		r.OutageDuration, r.OutageSeed = f.OutageDuration, f.OutageSeed
		if r.OutageDuration == 0 {
			r.OutageDuration = DefaultOutageDuration
		}
		if r.OutageSeed == 0 {
			r.OutageSeed = DefaultOutageSeed
		}
	}
	return r
}
