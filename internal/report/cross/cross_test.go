package cross

import (
	"bytes"
	"strings"
	"testing"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/wms"
)

// recordPair runs the known-divergent pair — the same scaled-down
// Montage on nfs-sync and on pvfs — through the recorded sweep at the
// given parallelism and returns the two logs.
func recordPair(t *testing.T, parallel int) (a, b []byte) {
	t.Helper()
	w, err := apps.Montage(apps.MontageConfig{Images: 10})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := harness.SweepRecorded([]harness.RunConfig{
		{App: "montage", Storage: "nfs-sync", Workers: 2, Workflow: w},
		{App: "montage", Storage: "pvfs", Workers: 2, Workflow: w},
	}, parallel)
	if err != nil {
		t.Fatal(err)
	}
	return cells[0].Log, cells[1].Log
}

// TestCrossReportDivergentPair compares nfs-sync against pvfs on the
// same workflow: the report must match every task, find a first
// divergent transfer, and render deterministically.
func TestCrossReportDivergentPair(t *testing.T) {
	t.Parallel()
	a, b := recordPair(t, 1)
	r, err := Compare(a, b, Options{ALabel: "nfs-sync", BLabel: "pvfs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tasks) == 0 {
		t.Fatal("no tasks matched")
	}
	if r.AOnlyTasks != 0 || r.BOnlyTasks != 0 {
		t.Errorf("same workflow, but %d/%d unmatched tasks", r.AOnlyTasks, r.BOnlyTasks)
	}
	if len(r.Transfers) == 0 {
		t.Fatal("no transfers matched")
	}
	if r.FirstDivergent == nil {
		t.Fatal("nfs-sync vs pvfs produced no divergent transfer")
	}
	out := r.String()
	for _, want := range []string{"first divergent transfer", "Per-task deltas", "Per-transfer deltas", "Task Δdur"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCrossReportParallelDeterminism is the satellite acceptance test:
// the first-divergent-transfer drilldown (and the whole rendered
// report) is identical whether the pair was recorded at -parallel 1 or
// -parallel 8.
func TestCrossReportParallelDeterminism(t *testing.T) {
	t.Parallel()
	a1, b1 := recordPair(t, 1)
	a8, b8 := recordPair(t, 8)
	if !bytes.Equal(a1, a8) || !bytes.Equal(b1, b8) {
		t.Fatal("recorded logs differ between -parallel 1 and -parallel 8")
	}
	opt := Options{ALabel: "nfs-sync", BLabel: "pvfs"}
	r1, err := Compare(a1, b1, opt)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Compare(a8, b8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FirstDivergent == nil || r8.FirstDivergent == nil {
		t.Fatal("no first divergent transfer found")
	}
	if *r1.FirstDivergent != *r8.FirstDivergent {
		t.Errorf("first divergent transfer differs:\n p1: %+v\n p8: %+v",
			*r1.FirstDivergent, *r8.FirstDivergent)
	}
	if out1, out8 := r1.String(), r8.String(); out1 != out8 {
		t.Errorf("rendered reports differ:\n%s\nvs\n%s", out1, out8)
	}
}

// TestCrossReportSelfCompare compares a log against itself: zero
// deltas, no divergence.
func TestCrossReportSelfCompare(t *testing.T) {
	t.Parallel()
	a, _ := recordPair(t, 1)
	r, err := Compare(a, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FirstDivergent != nil {
		t.Errorf("self-comparison diverged: %+v", *r.FirstDivergent)
	}
	for _, d := range r.Tasks {
		if d.DStart() != 0 || d.DDur() != 0 {
			t.Fatalf("self-comparison has nonzero task delta: %+v", d)
		}
	}
	if !strings.Contains(r.Summary(), "no divergent transfers") {
		t.Errorf("summary missing clean verdict:\n%s", r.Summary())
	}
}

// TestCrossReportRetryOccurrences pins occurrence matching: a run with
// injected retries re-stages inputs, and those repeats either pair with
// the other run's repeats or are counted unmatched — never misaligned.
func TestCrossReportRetryOccurrences(t *testing.T) {
	t.Parallel()
	w, err := apps.Montage(apps.MontageConfig{Images: 10})
	if err != nil {
		t.Fatal(err)
	}
	record := func(rate float64) []byte {
		var buf bytes.Buffer
		_, err := harness.RunRecorded(harness.RunConfig{
			App: "montage", Storage: "nfs", Workers: 2, Workflow: w,
			Faults: wms.Faults{FailureRate: rate},
		}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	clean, faulty := record(0), record(0.3)
	r, err := Compare(clean, faulty, Options{ALabel: "clean", BLabel: "faulty"})
	if err != nil {
		t.Fatal(err)
	}
	if r.BOnlyTransfers == 0 {
		t.Fatal("test premise broken: faulty run produced no extra transfers")
	}
	if r.AOnlyTransfers != 0 {
		t.Errorf("clean run has %d transfers the faulty run lacks", r.AOnlyTransfers)
	}
	if len(r.Tasks) == 0 {
		t.Fatal("no tasks matched")
	}
}

// TestCrossReportCorruptLog asserts decode errors surface as errors.
func TestCrossReportCorruptLog(t *testing.T) {
	t.Parallel()
	a, b := recordPair(t, 1)
	bad := append([]byte{}, b...)
	bad = bad[:len(bad)-3]
	_, err := Compare(a, bad, Options{})
	if err == nil {
		t.Fatal("truncated log compared without error")
	}
	if !strings.Contains(err.Error(), "log B") {
		t.Errorf("error does not name the bad side: %v", err)
	}
}
