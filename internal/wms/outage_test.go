package wms

import (
	"errors"
	"math"
	"testing"

	"ec2wfsim/internal/units"
)

// TestOutageKillsAndRecovers injects aggressive outages into a fan of
// long tasks: attempts must be killed as Failed spans, every task must
// still complete after recoveries, and the makespan must inflate over
// the outage-free run.
func TestOutageKillsAndRecovers(t *testing.T) {
	run := func(rate float64) *Result {
		e, c, sys := deploy(t, "gluster-nufa", 2)
		w := fanWorkflow(t, 32, 60, 100*units.MB)
		res, err := Run(e, Options{
			Cluster: c, Storage: sys,
			Faults: Faults{OutageRate: rate, OutageDuration: 90, OutageSeed: 7},
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(0)
	broken := run(40) // ~one outage per node every 90 s
	if broken.Outages == 0 {
		t.Fatal("aggressive outage rate produced no outages")
	}
	if broken.OutageKills == 0 {
		t.Error("outages killed no in-flight attempts")
	}
	if broken.Completed() != 32 {
		t.Errorf("completed %d of 32 tasks", broken.Completed())
	}
	failed := 0
	for _, s := range broken.Spans {
		if s.Failed {
			failed++
		}
		// Every span — killed ones included — must keep its phases
		// ordered, or trace staging/execution accounting goes negative.
		if s.Exec < s.Start || s.WriteEnd < s.Exec {
			t.Errorf("span %s on %s has disordered phases: start=%g exec=%g end=%g",
				s.Task.ID, s.Node, s.Start, s.Exec, s.WriteEnd)
		}
	}
	if int64(failed) != broken.OutageKills {
		t.Errorf("failed spans = %d, outage kills = %d", failed, broken.OutageKills)
	}
	if broken.Makespan <= clean.Makespan {
		t.Errorf("outage makespan %.1f not slower than clean %.1f", broken.Makespan, clean.Makespan)
	}
	if broken.LostWorkSeconds <= 0 {
		t.Error("kills recorded but no lost work")
	}
	if clean.Outages != 0 || clean.OutageKills != 0 || clean.LostWorkSeconds != 0 {
		t.Errorf("outage-free run reports outage stats: %+v", clean)
	}
}

// TestOutageDeterministic pins outage-run reproducibility: a fixed
// OutageSeed replays the same kills and makespan; a different seed
// produces a different schedule.
func TestOutageDeterministic(t *testing.T) {
	run := func(seed uint64) *Result {
		e, c, sys := deploy(t, "pvfs", 2)
		w := fanWorkflow(t, 24, 45, 50*units.MB)
		res, err := Run(e, Options{
			Cluster: c, Storage: sys,
			Faults: Faults{OutageRate: 30, OutageDuration: 60, OutageSeed: seed},
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if a.Makespan != b.Makespan || a.OutageKills != b.OutageKills || a.Outages != b.Outages {
		t.Errorf("fixed OutageSeed did not replay: (%g, %d, %d) vs (%g, %d, %d)",
			a.Makespan, a.Outages, a.OutageKills, b.Makespan, b.Outages, b.OutageKills)
	}
	c := run(43)
	if c.Makespan == a.Makespan && c.OutageKills == a.OutageKills {
		t.Error("changing OutageSeed changed nothing")
	}
}

// TestCheckpointRestartPreservesProgress compares a failure-heavy run
// with and without checkpointing: checkpoints must be written and
// staged as real bytes, and the checkpointed run must lose less work
// (restarts resume instead of recomputing).
func TestCheckpointRestartPreservesProgress(t *testing.T) {
	run := func(interval float64) *Result {
		e, c, sys := deploy(t, "gluster-nufa", 2)
		// Long tasks so a mid-task kill without checkpoints wastes a lot.
		w := fanWorkflow(t, 16, 120, 256*units.MB)
		res, err := Run(e, Options{
			Cluster: c, Storage: sys,
			Faults: Faults{
				FailureRate: 0.4, FailureSeed: 11, MaxRetries: 3,
				CheckpointInterval: interval,
			},
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(0)
	ckpt := run(20)
	if plain.Failures == 0 || ckpt.Failures == 0 {
		t.Fatal("failure injection produced nothing to restart")
	}
	if ckpt.Checkpoints == 0 || ckpt.CheckpointBytes == 0 {
		t.Errorf("no checkpoints recorded: %d writes, %.0f bytes", ckpt.Checkpoints, ckpt.CheckpointBytes)
	}
	if plain.Checkpoints != 0 || plain.CheckpointBytes != 0 {
		t.Error("checkpoint-free run recorded checkpoints")
	}
	if ckpt.LostWorkSeconds >= plain.LostWorkSeconds {
		t.Errorf("checkpointing did not reduce lost work: %.1f s vs %.1f s",
			ckpt.LostWorkSeconds, plain.LostWorkSeconds)
	}
	if ckpt.Completed() != 16 || plain.Completed() != 16 {
		t.Errorf("completions: ckpt %d, plain %d, want 16", ckpt.Completed(), plain.Completed())
	}
}

// TestCheckpointOverheadWithoutFailures: checkpointing alone (no
// failures, no outages) must slow the run down — the checkpoint writes
// are real storage traffic — while still completing everything.
func TestCheckpointOverheadWithoutFailures(t *testing.T) {
	run := func(interval float64) *Result {
		e, c, sys := deploy(t, "nfs", 2)
		w := fanWorkflow(t, 16, 90, 512*units.MB)
		res, err := Run(e, Options{Cluster: c, Storage: sys, Faults: Faults{CheckpointInterval: interval}}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(0)
	ckpt := run(30)
	if ckpt.Checkpoints == 0 {
		t.Fatal("no checkpoints written")
	}
	if ckpt.Makespan <= plain.Makespan {
		t.Errorf("checkpoint overhead invisible: %.1f s vs %.1f s", ckpt.Makespan, plain.Makespan)
	}
	if ckpt.LostWorkSeconds != 0 {
		t.Errorf("failure-free run lost %.1f s of work", ckpt.LostWorkSeconds)
	}
}

// TestOutageValidation pins option validation at the Run boundary.
func TestOutageValidation(t *testing.T) {
	w := chainWorkflow(t, 1, 1)
	for _, tc := range []struct {
		name                string
		rate, dur, interval float64
	}{
		{"negative outage rate", -1, 0, 0},
		{"NaN outage rate", math.NaN(), 0, 0},
		{"infinite outage rate", math.Inf(1), 0, 0},
		{"NaN outage duration", 1, math.NaN(), 0},
		{"negative checkpoint interval", 0, 0, -5},
		{"NaN checkpoint interval", 0, 0, math.NaN()},
	} {
		e, c, sys := deploy(t, "local", 1)
		opts := Options{Cluster: c, Storage: sys, Faults: Faults{OutageRate: tc.rate, OutageDuration: tc.dur, CheckpointInterval: tc.interval}}
		var fe *FaultError
		if _, err := Run(e, opts, w); !errors.As(err, &fe) {
			t.Errorf("%s gave %v, want a *FaultError", tc.name, err)
		}
	}
}
