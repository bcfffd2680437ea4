package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Writer streams a log to an underlying io.Writer: header first, then
// events as they are recorded, with contiguous sequence numbers, then a
// trailer on Close. The layers that emit events (wms, storage) hold a
// possibly-nil *Writer and call Record unconditionally: a nil Writer
// records nothing.
//
// Errors are sticky: the first I/O or encoding failure is remembered,
// subsequent Records become no-ops, and Close (or Err) reports it. The
// emission sites inside the simulation therefore never need an error
// path — a recorded run checks the writer once, at the end.
type Writer struct {
	bw     *bufio.Writer
	n      uint64 // events written
	err    error
	closed bool
	// payload and prefix are the event record being framed, reused by
	// every Record so recording allocates nothing per event.
	payload []byte
	prefix  [24]byte
}

// NewWriter writes the header and returns a streaming writer. The
// header's Format and Version are filled in; Spec must be valid JSON
// (it is carried verbatim and re-emitted byte-for-byte on replay).
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	lw := &Writer{bw: bufio.NewWriter(w)}
	h.Format = Magic
	h.Version = SchemaVersion
	if len(h.Spec) == 0 || !json.Valid(h.Spec) {
		return nil, fmt.Errorf("eventlog: header spec is not valid JSON")
	}
	if len(h.Workflow) > 0 && !json.Valid(h.Workflow) {
		return nil, fmt.Errorf("eventlog: header workflow is not valid JSON")
	}
	if err := lw.record('h', h); err != nil {
		return nil, err
	}
	return lw, nil
}

// record frames the encoding/json encoding of a header or trailer.
func (w *Writer) record(typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("eventlog: encoding %c record: %w", typ, err)
	}
	return w.frame(typ, payload)
}

// frame writes one record: <type><len>:<payload>\n.
func (w *Writer) frame(typ byte, payload []byte) error {
	pre := append(w.prefix[:0], typ)
	pre = strconv.AppendInt(pre, int64(len(payload)), 10)
	pre = append(pre, ':')
	if _, err := w.bw.Write(pre); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	return w.bw.WriteByte('\n')
}

// Record assigns the event's sequence number and appends it to the
// stream. On a nil Writer it does nothing, and being only that test it
// inlines, so a run without a log pays no call per would-be event.
// Events recorded after Close, or after an error, are dropped.
func (w *Writer) Record(e Event) {
	if w != nil {
		w.recordEvent(e)
	}
}

// recordEvent is Record's body on a non-nil Writer. It takes the event
// by value: were its address taken, every inlined Record would keep its
// own copy in the caller's stack frame, and the wms slot processes'
// deeper stacks cost megabytes of memory on clusters of many workers.
func (w *Writer) recordEvent(e Event) {
	if w.err != nil || w.closed {
		return
	}
	w.n++
	e.Seq = w.n
	if !e.Kind.Valid() {
		w.err = fmt.Errorf("eventlog: recording uncatalogued kind %q", e.Kind)
		return
	}
	var err error
	if w.payload, err = appendEvent(w.payload[:0], &e); err != nil {
		w.err = fmt.Errorf("eventlog: encoding e record: %w", err)
		return
	}
	w.err = w.frame('e', w.payload)
}

// Err returns the first error the writer hit, if any.
func (w *Writer) Err() error { return w.err }

// Close writes the trailer (recording the event count and the given
// engine-scheduled event total) and flushes. It returns the first error
// from the whole write, so a recorded run's error handling is exactly
// one Close check.
func (w *Writer) Close(simEvents int64) error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil {
		w.err = w.record('t', Trailer{Events: w.n, SimEvents: simEvents})
	}
	if ferr := w.bw.Flush(); w.err == nil {
		w.err = ferr
	}
	return w.err
}
