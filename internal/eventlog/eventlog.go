// Package eventlog defines the run-artifact wire format: a typed,
// append-only, deterministic event stream describing everything that
// happened inside one simulation run — task attempts, storage transfers,
// node outages, checkpoints, cache behaviour — framed as length-prefixed
// JSON lines behind a schema-versioned header.
//
// The format is the simulator's audit trail. A log is written once,
// forward-only, while the run executes (through a *Writer, which the
// wms and storage layers hold possibly nil: a nil Writer records
// nothing), and is consumed three ways: replay verification re-runs the
// spec in the header and asserts the fresh stream is byte-identical
// (the mechanical form of the determinism contract the wfvet lint
// reasons about statically), cross-scenario reports pair two logs and
// explain where the runs diverged, and the sweep fabric ships logs as a
// compact wire format richer than JSON summary rows.
//
// The package deliberately depends only on the standard library: it is
// imported by the sim-layer packages (wms, storage) that emit events,
// and by the harness/report layers that consume them.
//
// # Framing
//
// A log is a sequence of records, each one line:
//
//	<type><length>:<payload>\n
//
// where <type> is 'h' (header, exactly one, first), 'e' (event) or 't'
// (trailer, exactly one, last), <length> is the decimal byte length of
// <payload>, and <payload> is one JSON object. The length prefix makes
// mid-record truncation and splices detectable without parsing JSON;
// the trailer's event count makes record-boundary truncation
// detectable; event sequence numbers make reordering detectable. Any
// violation decodes to a *CorruptError naming the byte offset.
//
// Every payload is exactly the bytes encoding/json writes for its
// record. Event payloads are encoded by hand, without reflection, to
// that form; the reader parses that form directly and sends any other
// payload through encoding/json, so the set of logs it accepts, what it
// decodes them to and the errors it rejects them with are the same as
// if encoding/json decoded every payload.
package eventlog

import (
	"encoding/json"
	"fmt"
)

// RawJSON is a pre-encoded JSON value carried verbatim (an alias of
// json.RawMessage, named for readers of the header schema).
type RawJSON = json.RawMessage

// Magic identifies the format in a header's "format" field.
const Magic = "wfevt"

// SchemaVersion is the current header/event schema. Readers reject
// other versions: the golden logs pin the schema, so bumping it is an
// explicit, reviewed act.
const SchemaVersion = 1

// Kind names an event type. Kinds are short stable strings (not ints)
// so logs stay greppable and self-describing.
type Kind string

// The event catalog. Every event the simulator emits is one of these.
const (
	// TaskStart: a worker slot picked the task attempt up (Task, Node,
	// Attempt). TaskExec: inputs staged, computation began. TaskFinish:
	// outputs published, task complete. TaskFail: the attempt aborted
	// (Reason "injected" or "outage"). TaskRetry: the failed task was
	// handed back to DAGMan for re-execution.
	TaskStart  Kind = "task-start"
	TaskExec   Kind = "task-exec"
	TaskFinish Kind = "task-finish"
	TaskFail   Kind = "task-fail"
	TaskRetry  Kind = "task-retry"

	// TransferStart/TransferDrain bracket one storage access issued on
	// behalf of a task (Task, Node, File, Size, Phase "input", "output",
	// "ckpt" or "restore"). The drain event carries the transfer's
	// duration in Dur.
	TransferStart Kind = "xfer-start"
	TransferDrain Kind = "xfer-drain"

	// OutageBegin/OutageEnd bracket one node outage window (Node, with
	// Dur on the begin event carrying the scheduled window length);
	// OutageKill records an in-flight attempt the outage killed (Node,
	// Task). NodeDown/NodeUp record the node state transitions — NodeUp
	// is also emitted once per node at provisioning time.
	OutageBegin Kind = "outage-begin"
	OutageEnd   Kind = "outage-end"
	OutageKill  Kind = "outage-kill"
	NodeUp      Kind = "node-up"
	NodeDown    Kind = "node-down"

	// CheckpointWrite: a task staged a checkpoint through the storage
	// system (Task, Node, File, Size). CheckpointRestore: a retried
	// attempt restored from its last checkpoint.
	CheckpointWrite   Kind = "ckpt-write"
	CheckpointRestore Kind = "ckpt-restore"

	// CacheHit/CacheMiss record client- or server-side cache decisions
	// inside a storage backend (Node, File, Size) — the S3 whole-file
	// client cache and the NFS server page cache emit them.
	CacheHit  Kind = "cache-hit"
	CacheMiss Kind = "cache-miss"
)

// kinds lists the catalog in emission-layer order. Kept as a slice, not
// a map: consumers iterate it for deterministic per-kind summaries.
var kinds = []Kind{
	TaskStart, TaskExec, TaskFinish, TaskFail, TaskRetry,
	TransferStart, TransferDrain,
	OutageBegin, OutageEnd, OutageKill, NodeUp, NodeDown,
	CheckpointWrite, CheckpointRestore,
	CacheHit, CacheMiss,
}

// Kinds returns the full event catalog in canonical order. The returned
// slice is a copy.
func Kinds() []Kind {
	out := make([]Kind, len(kinds))
	copy(out, kinds)
	return out
}

// Valid reports whether k is a catalogued kind. The reader rejects
// events with uncatalogued kinds: a bit flip inside a kind string must
// read as corruption, not as a new event type.
func (k Kind) Valid() bool {
	for _, v := range kinds {
		if k == v {
			return true
		}
	}
	return false
}

// Event is one record of the stream. Fields not meaningful for a kind
// stay zero and are omitted from the encoding; see the Kind catalog for
// which fields each kind carries.
type Event struct {
	// Seq is the 1-based position in the stream, assigned by the Writer.
	// Contiguity is a decode-time invariant.
	Seq uint64 `json:"seq"`
	// T is the simulated time in seconds.
	T float64 `json:"t"`
	// Kind is the event type.
	Kind Kind `json:"kind"`

	Task string `json:"task,omitempty"` // workflow task ID
	Node string `json:"node,omitempty"` // cluster node name
	File string `json:"file,omitempty"` // workflow file name

	// Phase labels a transfer's role in the task lifecycle: "input",
	// "output", "ckpt" or "restore".
	Phase string `json:"phase,omitempty"`
	// Size is the payload size in bytes (transfers, checkpoints, cache
	// decisions).
	Size float64 `json:"size,omitempty"`
	// Attempt is the task's 1-based attempt number (task lifecycle
	// events).
	Attempt int `json:"attempt,omitempty"`
	// Reason qualifies a task-fail: "injected" (failure injection) or
	// "outage" (node kill).
	Reason string `json:"reason,omitempty"`
	// Dur is a duration in seconds: the transfer time on xfer-drain, the
	// scheduled window length on outage-begin.
	Dur float64 `json:"dur,omitempty"`
}

// Header opens every log: enough to re-run the cell it records.
type Header struct {
	// Format is Magic; Version is SchemaVersion.
	Format  string `json:"format"`
	Version int    `json:"version"`
	// CellKey is the canonical memoization key of the recorded cell
	// (empty for runs of custom in-memory workflows, which have no key).
	CellKey string `json:"cell_key,omitempty"`
	// Spec is the serialized scenario spec (scenario.Spec canonical
	// JSON): application, storage, cluster shape, every seed. Replay
	// rebuilds the run from it.
	Spec RawJSON `json:"spec"`
	// Seed is the effective provisioning-jitter seed (the spec's seed
	// with the fixed default applied), denormalized for greppability.
	Seed uint64 `json:"seed,omitempty"`
	// Workflow is the serialized DAG (workflow JSON) when the run used a
	// custom in-memory workflow rather than a catalog application; nil
	// when Spec's app/app_seed fully determine the DAG.
	Workflow RawJSON `json:"workflow,omitempty"`
}

// Trailer closes every log.
type Trailer struct {
	// Events is the number of event records between header and trailer;
	// a mismatch with the observed count reads as corruption.
	Events uint64 `json:"events"`
	// SimEvents is the total number of events the simulation engine
	// scheduled during the run — a cheap replay cross-check on the
	// engine's internal behaviour, beyond the emitted stream.
	SimEvents int64 `json:"sim_events,omitempty"`
}

// CorruptError reports a structurally invalid log: bad framing, invalid
// JSON, a sequence gap, a truncated stream, a count mismatch, trailing
// garbage. Offset is the byte position of the record where decoding
// failed.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("eventlog: corrupt log at byte %d: %s", e.Offset, e.Reason)
}

// corrupt builds a *CorruptError.
func corrupt(off int64, format string, args ...any) error {
	return &CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}
