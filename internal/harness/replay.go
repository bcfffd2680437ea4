package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/sweep"
	"ec2wfsim/internal/workflow"
)

// This file is the replay layer over the event log: recorded runs embed
// everything that determines their outcome (the scenario spec, the
// seeds, and — for custom DAGs — the workflow itself) in the log
// header, so any log can be re-executed from scratch and the fresh
// stream compared byte-for-byte against the recorded one. That
// comparison is the strongest determinism check the simulator has: it
// covers every task pickup, transfer, cache decision and outage, not
// just the headline metrics the goldens pin.

// headerFor builds the self-describing log header for a configuration.
// Configurations with a custom Workflow embed its JSON so the log stays
// replayable; catalog runs are reconstructed from (App, AppSeed) alone.
// The spec is validated first, so a bad knob fails with its typed error
// before any header is written.
func headerFor(cfg RunConfig) (eventlog.Header, error) {
	if err := cfg.Validate(); err != nil {
		return eventlog.Header{}, err
	}
	specJSON, err := cfg.CanonicalJSON()
	if err != nil {
		return eventlog.Header{}, fmt.Errorf("harness: encoding spec: %w", err)
	}
	h := eventlog.Header{
		CellKey: CellKey(cfg),
		Spec:    specJSON,
		Seed:    cfg.EffectiveSeed(),
	}
	if cfg.Workflow != nil {
		var buf bytes.Buffer
		if err := cfg.Workflow.WriteJSON(&buf); err != nil {
			return eventlog.Header{}, fmt.Errorf("harness: encoding workflow: %w", err)
		}
		h.Workflow = buf.Bytes()
	}
	return h, nil
}

// configFromHeader reconstructs the run configuration a log header
// describes: the spec decodes strictly (unknown fields are corruption,
// not extension points), and an embedded workflow overrides the
// catalog application exactly as it did when the log was recorded.
func configFromHeader(h eventlog.Header) (RunConfig, error) {
	var cfg RunConfig
	dec := json.NewDecoder(bytes.NewReader(h.Spec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return RunConfig{}, fmt.Errorf("harness: log header spec: %w", err)
	}
	if len(h.Workflow) > 0 {
		w, err := workflow.ReadJSON(bytes.NewReader(h.Workflow))
		if err != nil {
			return RunConfig{}, fmt.Errorf("harness: log header workflow: %w", err)
		}
		cfg.Workflow = w
	}
	return cfg, nil
}

// RunRecorded is Run with event recording: the cell's full structured
// event stream is written to out as a replayable log. Recording leaves
// the simulation itself untouched — the result is bit-identical to an
// unrecorded Run of the same configuration. The header describes cfg as
// given, so a catalog cell's log stays catalog-keyed although the run
// uses the shared paper-scale DAG.
func RunRecorded(cfg RunConfig, out io.Writer) (*RunResult, error) {
	h, err := headerFor(cfg)
	if err != nil {
		return nil, err
	}
	return runRecorded(cfg, h, out)
}

// runRecorded executes cfg with a log writer for the given header. The
// header is written verbatim, which is what lets Replay produce a
// byte-identical stream: it hands the recorded header straight back.
func runRecorded(cfg RunConfig, h eventlog.Header, out io.Writer) (*RunResult, error) {
	lw, err := eventlog.NewWriter(out, h)
	if err != nil {
		return nil, err
	}
	r, simEvents, err := runWith(cfg, lw)
	if err != nil {
		return nil, err
	}
	if err := lw.Close(simEvents); err != nil {
		return nil, err
	}
	return r, nil
}

// Replay re-executes the run a recorded log's header describes,
// writing the fresh event stream to out. The header is copied into the
// new log verbatim, so on a deterministic simulator the replayed log is
// byte-identical to the original.
func Replay(h eventlog.Header, out io.Writer) (*RunResult, error) {
	cfg, err := configFromHeader(h)
	if err != nil {
		return nil, err
	}
	return runRecorded(cfg, h, out)
}

// VerifyResult reports the outcome of one replay verification.
type VerifyResult struct {
	// Match is true when the replayed stream is byte-identical to the
	// recorded log — header, every event, and trailer.
	Match bool
	// Events is the recorded log's event count.
	Events uint64
	// Seq is the stream position of the first diverging event when
	// Match is false (0 when the divergence is structural — an event
	// count or trailer difference before any event differs).
	Seq uint64
	// Detail describes the first divergence in one line.
	Detail string
}

// ReplayVerify validates a recorded log, re-runs the configuration its
// header describes, and compares the fresh stream byte-for-byte against
// the recording. Validation streams the log through the decoder without
// keeping its events, so a corrupt or truncated log still fails with
// the decoder's *eventlog.CorruptError before any simulation starts.
// Events are decoded into memory only when the streams differ, to
// pinpoint the first divergence.
func ReplayVerify(logData []byte) (*RunResult, *VerifyResult, error) {
	lr, err := eventlog.NewReader(bytes.NewReader(logData))
	if err != nil {
		return nil, nil, err
	}
	for {
		if _, err := lr.Next(); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, err
		}
	}
	// A deterministic replay writes exactly len(logData) bytes.
	buf := bytes.NewBuffer(make([]byte, 0, len(logData)))
	r, err := Replay(lr.Header(), buf)
	if err != nil {
		return nil, nil, err
	}
	v := &VerifyResult{Events: lr.Trailer().Events}
	fresh := buf.Bytes()
	if bytes.Equal(logData, fresh) {
		v.Match = true
		return r, v, nil
	}
	_, events, tr, err := eventlog.Decode(logData)
	if err != nil {
		return nil, nil, err
	}
	_, freshEvents, freshTr, err := eventlog.Decode(fresh)
	if err != nil {
		// The stream this process just wrote must decode; anything else
		// is an eventlog bug.
		return nil, nil, fmt.Errorf("harness: replayed stream does not decode: %w", err)
	}
	v.Seq, v.Detail = firstDivergence(events, freshEvents, tr, freshTr)
	return r, v, nil
}

// firstDivergence pinpoints where a recorded and a replayed stream
// part ways: the first event (by stream position) that differs, or the
// structural difference (counts, trailer) when the common prefix is
// identical.
func firstDivergence(rec, rep []eventlog.Event, recTr, repTr eventlog.Trailer) (uint64, string) {
	n := len(rec)
	if len(rep) < n {
		n = len(rep)
	}
	for i := 0; i < n; i++ {
		if rec[i] != rep[i] {
			return rec[i].Seq, fmt.Sprintf("event %d: recorded %s, replayed %s",
				rec[i].Seq, eventJSON(rec[i]), eventJSON(rep[i]))
		}
	}
	if len(rec) != len(rep) {
		return 0, fmt.Sprintf("recorded log has %d events, replay produced %d (first %d identical)",
			len(rec), len(rep), n)
	}
	if recTr != repTr {
		return 0, fmt.Sprintf("trailer differs: recorded %d engine events, replay %d",
			recTr.SimEvents, repTr.SimEvents)
	}
	return 0, "streams decode identically but bytes differ (encoder instability)"
}

// eventJSON renders an event compactly for divergence messages.
func eventJSON(e eventlog.Event) string {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Sprintf("%+v", e)
	}
	return string(b)
}

// RecordedCell pairs one sweep cell's result with its serialized event
// log.
type RecordedCell struct {
	Result *RunResult
	Log    []byte
}

// SweepRecorded runs a batch of cells concurrently, recording each
// cell's event stream. Results and logs come back in input order,
// bit-identical at any parallelism: each cell records into its own
// buffer, so the worker pool's scheduling never interleaves streams.
// Recorded cells bypass the process-wide memo cache — a cached result
// has no event stream to return. parallel <= 0 means GOMAXPROCS.
func SweepRecorded(cfgs []RunConfig, parallel int) ([]RecordedCell, error) {
	eng := &sweep.Engine[RunConfig, RecordedCell]{
		Run: func(cfg RunConfig) (RecordedCell, error) {
			var buf bytes.Buffer
			r, err := RunRecorded(cfg, &buf)
			if err != nil {
				return RecordedCell{}, fmt.Errorf("harness: %s on %s with %d workers: %w",
					cfg.App, cfg.Storage, cfg.Workers, err)
			}
			return RecordedCell{Result: r, Log: buf.Bytes()}, nil
		},
		Parallel: parallel,
	}
	return eng.Map(cfgs)
}
