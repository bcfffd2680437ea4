package wms

import (
	"errors"
	"math"
	"testing"
)

// TestFaultsValidate pins every knob's range: each bad value fails with
// a *FaultError naming its spec JSON key, whatever the rates are, and
// the zero value and the studies' canonical ladders pass.
func TestFaultsValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		field  string
		faults Faults
	}{
		{"failure_rate", Faults{FailureRate: -1}},
		{"failure_rate", Faults{FailureRate: nan}},
		{"failure_rate", Faults{FailureRate: inf}},
		{"failure_rate", Faults{FailureRate: 1}},
		{"max_retries", Faults{MaxRetries: -1}},
		{"max_retries", Faults{FailureRate: 0.1, MaxRetries: -1}},
		{"outage_rate", Faults{OutageRate: -1}},
		{"outage_rate", Faults{OutageRate: nan}},
		{"outage_rate", Faults{OutageRate: inf}},
		{"outage_duration", Faults{OutageDuration: -1}},
		{"outage_duration", Faults{OutageRate: 1, OutageDuration: nan}},
		{"outage_duration", Faults{OutageRate: 1, OutageDuration: inf}},
		{"checkpoint_interval", Faults{CheckpointInterval: -1}},
		{"checkpoint_interval", Faults{CheckpointInterval: nan}},
		{"checkpoint_interval", Faults{CheckpointInterval: inf}},
	}
	for _, tc := range bad {
		err := tc.faults.Validate()
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%+v: err = %v, want a *FaultError for %s", tc.faults, err, tc.field)
		}
	}

	// The canonical ladders of the failure study (harness.FailureRates)
	// and the outage study (harness.OutageRates at the study's 120 s
	// outages, with and without 120 s checkpoints); the scale study sets
	// no knob, which is the zero value.
	good := []Faults{{}}
	for _, rate := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		good = append(good, Faults{FailureRate: rate})
	}
	for _, rate := range []float64{0, 0.5, 1, 2} {
		for _, interval := range []float64{0, 120} {
			good = append(good, Faults{OutageRate: rate, OutageDuration: 120, CheckpointInterval: interval})
		}
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
}
