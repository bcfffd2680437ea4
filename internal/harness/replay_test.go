package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

// replayWorkflow builds the scaled-down Montage instance the replay
// tests share. Small enough that recording every backend twice stays
// fast, large enough that the schedule has real contention.
func replayWorkflow(t *testing.T) *workflow.Workflow {
	t.Helper()
	w, err := apps.Montage(apps.MontageConfig{Images: 10})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// replayWorkers picks a worker count the backend supports: 2, so the
// schedule is genuinely concurrent, except local, which runs on one.
func replayWorkers(name string) int {
	if storage.CheckWorkers(name, 2) != nil {
		return 1
	}
	return 2
}

// TestReplayVerifyAllBackends is the acceptance bar for the replay
// layer: for every storage backend, a recorded run replays to a
// byte-identical event stream.
func TestReplayVerifyAllBackends(t *testing.T) {
	t.Parallel()
	w := replayWorkflow(t)
	for _, name := range storage.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{
				App: "montage", Storage: name,
				Workers: replayWorkers(name), Workflow: w,
			}
			var buf bytes.Buffer
			if _, err := RunRecorded(cfg, &buf); err != nil {
				t.Fatal(err)
			}
			_, v, err := ReplayVerify(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !v.Match {
				t.Fatalf("replay diverged at seq %d: %s", v.Seq, v.Detail)
			}
			if v.Events == 0 {
				t.Fatal("recorded log has no events")
			}
		})
	}
}

// TestReplayVerifyFailureOutageCheckpoint replays the hard mode: failure
// injection, correlated outages and checkpointing all on, exercising
// the retry, kill and checkpoint event paths.
func TestReplayVerifyFailureOutageCheckpoint(t *testing.T) {
	t.Parallel()
	cfg := RunConfig{
		App: "montage", Storage: "nfs", Workers: 2,
		Workflow: replayWorkflow(t),
		Faults:   wms.Faults{FailureRate: 0.2, OutageRate: 30, OutageDuration: 5, CheckpointInterval: 2},
	}
	var buf bytes.Buffer
	r, err := RunRecorded(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Retries == 0 {
		t.Fatal("test premise broken: no retries were injected")
	}
	_, v, err := ReplayVerify(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("replay diverged at seq %d: %s", v.Seq, v.Detail)
	}
}

// TestRecordedMatchesUnrecorded pins the zero-cost contract from the
// other side: recording must not perturb the simulation, so a recorded
// run's result equals the plain run's bit for bit.
func TestRecordedMatchesUnrecorded(t *testing.T) {
	t.Parallel()
	cfg := RunConfig{
		App: "montage", Storage: "gluster-nufa", Workers: 2,
		Workflow: replayWorkflow(t),
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	recorded, err := RunRecorded(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	pj, _ := json.Marshal(plain.JSONRow())
	rj, _ := json.Marshal(recorded.JSONRow())
	if !bytes.Equal(pj, rj) {
		t.Errorf("recording perturbed the run:\nplain:    %s\nrecorded: %s", pj, rj)
	}
}

// TestReplayVerifyCorruptLog asserts the verifier refuses a damaged log
// with the decoder's typed error instead of replaying garbage.
func TestReplayVerifyCorruptLog(t *testing.T) {
	t.Parallel()
	cfg := RunConfig{
		App: "montage", Storage: "local", Workers: 1,
		Workflow: replayWorkflow(t),
	}
	var buf bytes.Buffer
	if _, err := RunRecorded(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x01
	_, v, err := ReplayVerify(data)
	if err == nil {
		// A flipped bit can land inside a numeric literal and still
		// decode; then the replay must report a divergence instead.
		if v.Match {
			t.Fatal("corrupt log verified clean")
		}
		return
	}
	var ce *eventlog.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt log failed with %T (%v), want *eventlog.CorruptError", err, err)
	}
}

// reframe rewrites the payload of record i of a log (0 is the header,
// then one record per event) with edit, and fixes that record's length
// prefix, so the framing stays valid and only the payload changes.
func reframe(t *testing.T, log []byte, i int, edit func(payload []byte) []byte) []byte {
	t.Helper()
	start := 0
	for ; i > 0; i-- {
		start += bytes.IndexByte(log[start:], '\n') + 1
	}
	colon := start + bytes.IndexByte(log[start:], ':')
	n, err := strconv.Atoi(string(log[start+1 : colon]))
	if err != nil {
		t.Fatalf("record at byte %d: bad length prefix: %v", start, err)
	}
	payload := edit(append([]byte(nil), log[colon+1:colon+1+n]...))
	out := append([]byte(nil), log[:start+1]...)
	out = strconv.AppendInt(out, int64(len(payload)), 10)
	out = append(append(out, ':'), payload...)
	return append(out, log[colon+1+n:]...)
}

// TestReplayVerifyRejectsCorruptBeforeReplay pins that ReplayVerify
// validates the whole log before it simulates anything. The header is
// re-framed to name an unknown storage system, so a replay would fail
// on its configuration, and the last event carries an uncatalogued
// kind; the verdict must be the decoder's *eventlog.CorruptError.
func TestReplayVerifyRejectsCorruptBeforeReplay(t *testing.T) {
	t.Parallel()
	cfg := RunConfig{
		App: "montage", Storage: "local", Workers: 1,
		Workflow: replayWorkflow(t),
	}
	var buf bytes.Buffer
	if _, err := RunRecorded(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	data := reframe(t, buf.Bytes(), 0, func(p []byte) []byte {
		return bytes.Replace(p, []byte(`"storage":"local"`), []byte(`"storage":"no-such-storage"`), 1)
	})
	lr, err := eventlog.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(lr.Header(), io.Discard); err == nil {
		t.Fatal("test premise broken: the re-framed header replays")
	}
	_, _, tr, err := eventlog.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	data = reframe(t, data, int(tr.Events), func(p []byte) []byte {
		return bytes.Replace(p, []byte(`"kind":"`), []byte(`"kind":"x`), 1)
	})
	_, _, err = ReplayVerify(data)
	var ce *eventlog.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("ReplayVerify = %v, want *eventlog.CorruptError", err)
	}
	if !strings.Contains(ce.Reason, "uncatalogued kind") {
		t.Errorf("CorruptError %q does not name the corrupted event", ce)
	}
}

// TestReplayVerifyRejectsBadWorkflowAmounts pins the workflow boundary
// under replay: a log whose embedded workflow carries a negative file
// size, runtime or peak memory fails ReplayVerify with the workflow's
// error. It must neither panic inside the simulation (a negative size
// reached the flow layer's argument check) nor verify clean (a negative
// peak memory did).
func TestReplayVerifyRejectsBadWorkflowAmounts(t *testing.T) {
	t.Parallel()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_montage_nfs-sync.wfevt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, old, new, want string }{
		{"size", `"size":2000000`, `"size":-200000`, "negative size"},
		{"runtime", `"runtime":5.5146538590456`, `"runtime":-5.514653859045`, "negative runtime"},
		{"peak memory", `"peakMemory":160000000`, `"peakMemory":-60000000`, "negative peak memory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := reframe(t, golden, 0, func(p []byte) []byte {
				if !bytes.Contains(p, []byte(tc.old)) {
					t.Fatalf("test premise broken: header has no %s", tc.old)
				}
				return bytes.Replace(p, []byte(tc.old), []byte(tc.new), 1)
			})
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("ReplayVerify panicked: %v", r)
					}
				}()
				_, _, err = ReplayVerify(data)
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReplayVerify = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestReplayVerifyPinpointsDivergence pins the decode-on-mismatch path:
// a log whose event 10 carries another valid timestamp still decodes,
// its replay differs, and the verdict names that event.
func TestReplayVerifyPinpointsDivergence(t *testing.T) {
	t.Parallel()
	cfg := RunConfig{
		App: "montage", Storage: "local", Workers: 1,
		Workflow: replayWorkflow(t),
	}
	var buf bytes.Buffer
	if _, err := RunRecorded(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	const seq = 10
	data := reframe(t, buf.Bytes(), seq, func(p []byte) []byte {
		var e eventlog.Event
		if err := json.Unmarshal(p, &e); err != nil {
			t.Fatal(err)
		}
		e.T = e.T*2 + 1
		out, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	_, v, err := ReplayVerify(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Match {
		t.Fatal("a log with a rewritten timestamp verified clean")
	}
	if v.Seq != seq {
		t.Errorf("divergence at seq %d, want %d (%s)", v.Seq, seq, v.Detail)
	}
	if want := fmt.Sprintf("event %d:", seq); !strings.HasPrefix(v.Detail, want) {
		t.Errorf("Detail %q does not start with %q", v.Detail, want)
	}
}

// TestSweepRecordedDeterminism extends the sweep engine's determinism
// bar to event logs: the same recorded cells at -parallel 1 and
// -parallel 8 yield byte-identical streams, in input order.
func TestSweepRecordedDeterminism(t *testing.T) {
	t.Parallel()
	w := replayWorkflow(t)
	cfgs := []RunConfig{
		{App: "montage", Storage: "nfs-sync", Workers: 2, Workflow: w},
		{App: "montage", Storage: "pvfs", Workers: 2, Workflow: w},
		{App: "montage", Storage: "s3", Workers: 2, Workflow: w},
	}
	serial, err := SweepRecorded(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := SweepRecorded(cfgs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(concurrent) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(concurrent))
	}
	for i := range serial {
		if !bytes.Equal(serial[i].Log, concurrent[i].Log) {
			t.Errorf("cell %d (%s): logs differ between -parallel 1 and -parallel 8",
				i, cfgs[i].Storage)
		}
	}
}

// TestGoldenEventLog pins the exact byte stream of one small recorded
// cell, so any change to the event schema, the emission order or the
// framing is a deliberate golden update, never silent drift.
//
// Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGoldenEventLog -update-golden
func TestGoldenEventLog(t *testing.T) {
	t.Parallel()
	w, err := apps.Montage(apps.MontageConfig{Images: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{App: "montage", Storage: "nfs-sync", Workers: 2, Workflow: w}
	var buf bytes.Buffer
	if _, err := RunRecorded(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "golden_montage_nfs-sync.wfevt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden event log (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Decode both sides for a readable first divergence.
		_, ge, gt, gerr := eventlog.Decode(got)
		_, we, wt, werr := eventlog.Decode(want)
		if gerr != nil || werr != nil {
			t.Fatalf("event log drifted and decode failed (got: %v, want: %v)", gerr, werr)
		}
		seq, detail := firstDivergence(we, ge, wt, gt)
		t.Fatalf("event log drifted from golden at seq %d: %s", seq, detail)
	}
	// The golden must also replay-verify: the embedded workflow and spec
	// alone reconstruct the run.
	_, v, err := ReplayVerify(want)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("golden log does not replay-verify: seq %d: %s", v.Seq, v.Detail)
	}
}
