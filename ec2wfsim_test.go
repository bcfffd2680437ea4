package ec2wfsim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

func TestFacadeRunsScaledWorkflow(t *testing.T) {
	w, err := apps.Montage(apps.MontageConfig{Images: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Workflow: w, Storage: "gluster-nufa", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSeconds <= 0 {
		t.Error("non-positive makespan")
	}
	if res.CostPerHour < res.CostPerSecond {
		t.Error("per-hour cost below per-second cost")
	}
	if res.ProvisionSeconds < 70 {
		t.Errorf("provisioning %.0f s below the EC2 boot window", res.ProvisionSeconds)
	}
}

func TestFacadeOutagesAndCheckpoints(t *testing.T) {
	w, err := apps.Montage(apps.MontageConfig{Images: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Workflow: w, Storage: "gluster-nufa", Workers: 2},
		WithOutages(20, 60), WithCheckpointing(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Error("aggressive outage rate produced no outages")
	}
	if res.Checkpoints > 0 && res.CheckpointBytes <= 0 {
		t.Error("checkpoints written but no checkpoint bytes reported")
	}
	if res.MakespanSeconds <= 0 {
		t.Error("non-positive makespan")
	}
	// Options set disjoint spec fields, so they compose independently of
	// the order they are passed in.
	reordered, err := Run(Config{Workflow: mustMontage(t), Storage: "gluster-nufa", Workers: 2},
		WithCheckpointing(30), WithOutages(20, 60))
	if err != nil {
		t.Fatal(err)
	}
	if reordered.MakespanSeconds != res.MakespanSeconds || reordered.OutageKills != res.OutageKills {
		t.Errorf("reordered options diverged: %+v vs %+v", reordered, res)
	}
	clean, err := Run(Config{Workflow: mustMontage(t), Storage: "gluster-nufa", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Outages != 0 || clean.OutageKills != 0 || clean.Checkpoints != 0 {
		t.Errorf("outage-free run reports outage stats: %+v", clean)
	}
}

func mustMontage(t *testing.T) *workflow.Workflow {
	t.Helper()
	w, err := apps.Montage(apps.MontageConfig{Images: 20})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFacadeValidation(t *testing.T) {
	if _, err := Run(Config{Application: "nope", Storage: "local", Workers: 1}); err == nil {
		t.Error("expected error for unknown application")
	}
	if _, err := Run(Config{Application: "montage", Storage: "nope", Workers: 1}); err == nil {
		t.Error("expected error for unknown storage system")
	}
	if _, err := Run(Config{Application: "montage", Storage: "gluster-nufa", Workers: 1}); err == nil {
		t.Error("expected error for GlusterFS below its 2-node minimum")
	}
}

func TestFacadeCatalogs(t *testing.T) {
	if len(Systems()) < 8 {
		t.Errorf("Systems() = %v, want the full registry", Systems())
	}
	if len(Applications()) != 3 {
		t.Errorf("Applications() = %v, want the paper's three", Applications())
	}
	if len(WorkerTypes()) < 3 {
		t.Errorf("WorkerTypes() = %v, want the instance catalog", WorkerTypes())
	}
	if len(AxisFields()) < 10 {
		t.Errorf("AxisFields() = %v, want every scenario field", AxisFields())
	}
}

func TestFacadeOptionsInjectFailures(t *testing.T) {
	res, err := Run(Config{Workflow: mustMontage(t), Storage: "gluster-nufa", Workers: 2},
		WithFailures(0.3, 5), WithFailureSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Error("aggressive failure rate injected nothing")
	}
	if res.Retries < res.Failures {
		t.Errorf("Retries = %d below Failures = %d", res.Retries, res.Failures)
	}
	reseeded, err := Run(Config{Workflow: mustMontage(t), Storage: "gluster-nufa", Workers: 2},
		WithFailures(0.3, 5), WithFailureSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.Failures == res.Failures && reseeded.MakespanSeconds == res.MakespanSeconds {
		t.Error("failure seed had no effect")
	}
}

func TestFacadeWorkerTypeOption(t *testing.T) {
	base, err := Run(Config{Workflow: mustMontage(t), Storage: "gluster-nufa", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(Config{Workflow: mustMontage(t), Storage: "gluster-nufa", Workers: 2},
		WithWorkerType("m1.large"))
	if err != nil {
		t.Fatal(err)
	}
	if small.MakespanSeconds <= base.MakespanSeconds {
		t.Errorf("2-core m1.large (%g s) not slower than 8-core c1.xlarge (%g s)",
			small.MakespanSeconds, base.MakespanSeconds)
	}
	var unknown *scenario.UnknownNameError
	if _, err := Run(Config{Workflow: mustMontage(t), Storage: "gluster-nufa", Workers: 2},
		WithWorkerType("t2.micro")); !errors.As(err, &unknown) {
		t.Errorf("unknown worker type error = %v, want *scenario.UnknownNameError", err)
	}
}

func TestFacadeTypedUnknownNameErrors(t *testing.T) {
	cases := []Config{
		{Application: "montag", Storage: "nfs", Workers: 2},
		{Application: "montage", Storage: "glusterfs", Workers: 2},
	}
	for _, cfg := range cases {
		var unknown *scenario.UnknownNameError
		_, err := Run(cfg)
		if !errors.As(err, &unknown) {
			t.Errorf("Run(%+v) err = %v, want *scenario.UnknownNameError", cfg, err)
			continue
		}
		if len(unknown.Valid) == 0 {
			t.Errorf("typed error for %+v lists no valid names", cfg)
		}
	}
}

// TestFacadeRejectsBadFaultKnobs: a NaN outage duration fails with the
// typed error at every facade entry point, before any cell runs (it
// used to stall the simulated clock) or the JSON encoder sees it.
func TestFacadeRejectsBadFaultKnobs(t *testing.T) {
	cfg := Config{Application: "epigenome", Storage: "nfs", Workers: 2}
	bad := WithOutages(1, math.NaN())
	check := func(call string, err error) {
		t.Helper()
		var fe *wms.FaultError
		if !errors.As(err, &fe) || fe.Field != "outage_duration" {
			t.Errorf("%s err = %v, want a *wms.FaultError for outage_duration", call, err)
		}
	}
	_, err := Run(cfg, bad)
	check("Run", err)
	e := Experiment{Base: cfg, Options: []Option{bad}}
	_, err = e.MarshalSpec()
	check("MarshalSpec", err)
	_, err = Sweep(context.Background(), e, SweepOptions{})
	check("Sweep", err)
}

func TestFacadeSweepStreams(t *testing.T) {
	e := Experiment{
		Base: Config{Workflow: mustMontage(t), Storage: "gluster-nufa", Workers: 2},
		Axes: []Axis{VaryStorage("gluster-nufa", "nfs", "s3")},
	}
	var updates []SweepUpdate
	rs, err := Sweep(context.Background(), e, SweepOptions{
		Parallel: 1,
		OnResult: func(u SweepUpdate) { updates = append(updates, u) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
	if len(updates) != 3 {
		t.Fatalf("streamed %d updates, want 3", len(updates))
	}
	for i, u := range updates {
		if u.Done != i+1 || u.Total != 3 {
			t.Errorf("update %d: Done=%d Total=%d", i, u.Done, u.Total)
		}
		if u.Err != nil || u.Result == nil {
			t.Errorf("update %d: err=%v result=%v", i, u.Err, u.Result)
		}
		if u.Key != "" {
			t.Errorf("update %d: custom-workflow cell has canonical key %q, want empty", i, u.Key)
		}
	}
	// Serial completion order is grid order; the axis varied storage.
	if updates[0].Storage != "gluster-nufa" || updates[1].Storage != "nfs" || updates[2].Storage != "s3" {
		t.Errorf("axis order lost: %s, %s, %s", updates[0].Storage, updates[1].Storage, updates[2].Storage)
	}
}

func TestFacadeSweepCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := Experiment{
		Base: Config{Workflow: mustMontage(t), Storage: "gluster-nufa", Workers: 2},
		Axes: []Axis{Vary("seed", 1, 2, 3, 4, 5, 6, 7, 8)},
	}
	var streamed int
	rs, err := Sweep(ctx, e, SweepOptions{
		Parallel: 1,
		OnResult: func(u SweepUpdate) {
			streamed++
			cancel() // cancel from inside the stream, mid-sweep
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rs != nil {
		t.Errorf("canceled sweep returned results: %v", rs)
	}
	if streamed == 0 {
		t.Error("no partial results streamed before cancellation")
	}
	if streamed >= 8 {
		t.Errorf("cancellation did not stop the sweep: %d of 8 cells ran", streamed)
	}
}

func TestFacadeSweepSeedsAggregates(t *testing.T) {
	e := Experiment{
		Base:  Config{Workflow: mustMontage(t), Storage: "nfs", Workers: 2},
		Axes:  []Axis{VaryWorkers(1, 2)},
		Seeds: 3,
	}
	reps, err := SweepSeeds(context.Background(), e, SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d cells, want 2", len(reps))
	}
	for _, rep := range reps {
		if len(rep.Runs) != 3 || rep.Makespan.N != 3 {
			t.Errorf("cell %s n=%d: %d runs, N=%d, want 3",
				rep.Storage, rep.Workers, len(rep.Runs), rep.Makespan.N)
		}
		if rep.Makespan.Min > rep.Makespan.Mean || rep.Makespan.Mean > rep.Makespan.Max {
			t.Errorf("summary out of order: %+v", rep.Makespan)
		}
	}
	if reps[0].Workers != 1 || reps[1].Workers != 2 {
		t.Errorf("axis order lost: %d, %d workers", reps[0].Workers, reps[1].Workers)
	}
}

func TestFacadeSpecRoundTrip(t *testing.T) {
	e := Experiment{
		Base:    Config{Application: "montage", Storage: "nfs", Workers: 2},
		Options: []Option{WithFailures(0.1, 5), WithWorkerType("m1.large")},
		Axes:    []Axis{VaryWorkers(2, 4), VaryOutageRates(0, 1)},
		Seeds:   4,
	}
	data, err := e.MarshalSpec()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.cells()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spec round trip changed the grid:\n got %+v\nwant %+v", got, want)
	}
	if back.Seeds != e.Seeds {
		t.Errorf("Seeds = %d, want %d", back.Seeds, e.Seeds)
	}
	// The parsed base is readable and overridable through Base: Config
	// fields must not be trapped inside the option.
	if back.Base.Application != "montage" || back.Base.Workers != 2 {
		t.Errorf("parsed Base not populated: %+v", back.Base)
	}
	back.Base.Application = "broadband"
	overridden, err := back.cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range overridden {
		if c.App != "broadband" {
			t.Fatalf("Base override ignored: %+v", c)
		}
		if c.WorkerType != "m1.large" || c.MaxRetries != 5 {
			t.Fatalf("option-carried fields lost: %+v", c)
		}
	}
	if _, err := (Experiment{Base: Config{Workflow: mustMontage(t), Storage: "nfs", Workers: 2}}).MarshalSpec(); err == nil {
		t.Error("custom-workflow experiment serialized")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() float64 {
		w, err := apps.Epigenome(apps.EpigenomeConfig{Lanes: 1, ChunksPerLane: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Workflow: w, Storage: "nfs", Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanSeconds
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical configs diverged: %g vs %g", a, b)
	}
}

func TestFacadeAmortize(t *testing.T) {
	w, err := apps.Epigenome(apps.EpigenomeConfig{Lanes: 1, ChunksPerLane: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Amortize(Config{Workflow: w, Storage: "gluster-nufa", Workers: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runs != 5 {
		t.Errorf("Runs = %d, want 5", a.Runs)
	}
	if a.SharedTotal > a.SeparateTotal {
		t.Error("sharing a cluster must never cost more than separate provisioning")
	}
	if a.PerSecondTotal > a.SharedTotal {
		t.Error("per-second baseline must be the floor")
	}
	if a.SavedFraction < 0 || a.SavedFraction >= 1 {
		t.Errorf("SavedFraction = %g out of range", a.SavedFraction)
	}
}
