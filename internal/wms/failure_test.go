package wms

import (
	"errors"
	"math"
	"testing"

	"ec2wfsim/internal/units"
)

func TestFailureInjectionRetriesAndCompletes(t *testing.T) {
	e, c, sys := deploy(t, "local", 1)
	w := fanWorkflow(t, 64, 5, 100*units.MB)
	res, err := Run(e, Options{
		Cluster: c,
		Storage: sys,
		Faults:  Faults{FailureRate: 0.2},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Completed(); got != 64 {
		t.Errorf("completed %d of 64 tasks despite retries", got)
	}
	if res.Failures == 0 {
		t.Error("20% failure rate over 64 tasks injected nothing")
	}
	if res.Retries != res.Failures {
		t.Errorf("retries %d != failures %d (transient failures always retry)", res.Retries, res.Failures)
	}
	// Failed attempts are visible in the trace, flagged, and well-formed.
	failed := int64(0)
	for _, s := range res.Spans {
		if !s.Failed {
			continue
		}
		failed++
		if !(s.Start <= s.Exec && s.Exec <= s.WriteEnd) {
			t.Errorf("failed span of %s is not ordered: %+v", s.Task.ID, s)
		}
	}
	if failed != res.Failures {
		t.Errorf("trace records %d failed spans, result counts %d failures", failed, res.Failures)
	}
	// BusySeconds must equal the sum over every recorded attempt,
	// successful or aborted — slots were occupied either way.
	total := 0.0
	for _, s := range res.Spans {
		total += s.WriteEnd - s.Start
	}
	if diff := total - res.BusySeconds; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("BusySeconds %.6f != span-sum %.6f", res.BusySeconds, total)
	}
}

func TestFailuresLengthenMakespan(t *testing.T) {
	run := func(rate float64) float64 {
		e, c, sys := deploy(t, "local", 1)
		w := fanWorkflow(t, 64, 5, 100*units.MB)
		res, err := Run(e, Options{Cluster: c, Storage: sys, Faults: Faults{FailureRate: rate}}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	clean, flaky := run(0), run(0.3)
	if flaky <= clean {
		t.Errorf("failures did not lengthen makespan (%.1f vs %.1f)", flaky, clean)
	}
}

func TestFailureInjectionDeterministic(t *testing.T) {
	run := func() (float64, int64) {
		e, c, sys := deploy(t, "local", 1)
		w := fanWorkflow(t, 32, 5, 100*units.MB)
		res, err := Run(e, Options{Cluster: c, Storage: sys, Faults: Faults{FailureRate: 0.25, FailureSeed: 99}}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan, res.Failures
	}
	m1, f1 := run()
	m2, f2 := run()
	if m1 != m2 || f1 != f2 {
		t.Errorf("failure injection not deterministic: (%g,%d) vs (%g,%d)", m1, f1, m2, f2)
	}
}

func TestMaxRetriesBoundsAttempts(t *testing.T) {
	// Even at a brutal failure rate, each task fails at most MaxRetries
	// times and the workflow completes.
	e, c, sys := deploy(t, "local", 1)
	w := fanWorkflow(t, 16, 2, 100*units.MB)
	res, err := Run(e, Options{
		Cluster: c,
		Storage: sys,
		Faults:  Faults{FailureRate: 0.95, MaxRetries: 2},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures > 16*2 {
		t.Errorf("failures = %d exceed tasks x MaxRetries = 32", res.Failures)
	}
	if got := res.Completed(); got != 16 {
		t.Errorf("completed %d of 16 tasks", got)
	}
	if want := 16 + int(res.Failures); len(res.Spans) != want {
		t.Errorf("spans = %d, want %d (16 completions + %d aborted attempts)",
			len(res.Spans), want, res.Failures)
	}
}

// TestCertainFailureRejected: failure knobs that leave no chance of
// progress, or that would silently switch injection off, fail before the
// run starts.
func TestCertainFailureRejected(t *testing.T) {
	w := fanWorkflow(t, 1, 1, 0)
	for _, tc := range []struct {
		name    string
		rate    float64
		retries int
	}{
		{"certain failure", 1.0, 0},
		{"negative rate", -0.1, 0},
		{"NaN rate", math.NaN(), 0},
		{"negative retries", 0.1, -1},
	} {
		e, c, sys := deploy(t, "local", 1)
		opts := Options{Cluster: c, Storage: sys, Faults: Faults{FailureRate: tc.rate, MaxRetries: tc.retries}}
		var fe *FaultError
		if _, err := Run(e, opts, w); !errors.As(err, &fe) {
			t.Errorf("%s: FailureRate %g with MaxRetries %d gave %v, want a *FaultError", tc.name, tc.rate, tc.retries, err)
		}
	}
}

func TestFailureReleasesMemory(t *testing.T) {
	// Memory-heavy tasks with failures must not leak the memory
	// semaphore: the run completing at all proves release; also check the
	// semaphore drained.
	e, c, sys := deploy(t, "local", 1)
	w := fanWorkflow(t, 12, 3, 4*units.GiB)
	res, err := Run(e, Options{Cluster: c, Storage: sys, Faults: Faults{FailureRate: 0.4}}, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Completed(); got != 12 {
		t.Fatalf("completed %d of 12", got)
	}
	n := c.Workers[0]
	if n.Memory.InUse() != 0 {
		t.Errorf("memory leaked: %d MB still held", n.Memory.InUse())
	}
}
