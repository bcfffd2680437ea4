package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// maxRecordLen bounds one record's payload. The largest legitimate
// payload is an embedded workflow DAG in the header; 64 MiB is far
// beyond any real log and small enough to fail fast on a corrupted
// length prefix.
const maxRecordLen = 64 << 20

// Reader decodes a log: NewReader consumes and validates the header,
// Next yields events in order, and after Next returns io.EOF the
// trailer is available (already checked against the event count).
// Structural damage anywhere — bad framing, invalid JSON, unknown
// fields or kinds, a sequence gap, truncation, trailing garbage —
// surfaces as a *CorruptError naming the byte offset, never a panic.
type Reader struct {
	br      *bufio.Reader
	off     int64 // offset of the next unread record
	hdr     Header
	trailer Trailer
	n       uint64 // events decoded
	done    bool
	// buf holds the current record's payload and enc re-encodes an
	// event for parseEvent's check. Both are reused from record to
	// record: decoded strings and RawJSON values are copies.
	buf, enc []byte
}

// NewReader reads and validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	lr := &Reader{br: bufio.NewReader(r)}
	typ, payload, err := lr.next()
	if err != nil {
		return nil, err
	}
	if typ != 'h' {
		return nil, corrupt(0, "log does not start with a header record (got %q)", typ)
	}
	if err := strictUnmarshal(payload, &lr.hdr); err != nil {
		return nil, corrupt(0, "header: %v", err)
	}
	if lr.hdr.Format != Magic {
		return nil, corrupt(0, "format %q is not %q", lr.hdr.Format, Magic)
	}
	if lr.hdr.Version != SchemaVersion {
		return nil, corrupt(0, "schema version %d (this reader speaks %d)", lr.hdr.Version, SchemaVersion)
	}
	if len(lr.hdr.Spec) == 0 || !json.Valid(lr.hdr.Spec) {
		return nil, corrupt(0, "header spec is missing or not valid JSON")
	}
	return lr, nil
}

// Header returns the validated header.
func (r *Reader) Header() Header { return r.hdr }

// Trailer returns the trailer; it is only meaningful after Next has
// returned io.EOF.
func (r *Reader) Trailer() Trailer { return r.trailer }

// Events returns the number of events decoded so far.
func (r *Reader) Events() uint64 { return r.n }

// Next returns the next event. It returns io.EOF after the trailer has
// been consumed and verified, and a *CorruptError on any structural
// problem.
func (r *Reader) Next() (Event, error) {
	if r.done {
		return Event{}, io.EOF
	}
	off := r.off
	typ, payload, err := r.next()
	if err != nil {
		return Event{}, err
	}
	switch typ {
	case 'e':
		e, enc, ok := parseEvent(payload, r.enc)
		r.enc = enc
		if !ok {
			if err := strictUnmarshal(payload, &e); err != nil {
				return Event{}, corrupt(off, "event %d: %v", r.n+1, err)
			}
		}
		if !e.Kind.Valid() {
			return Event{}, corrupt(off, "event %d: uncatalogued kind %q", r.n+1, e.Kind)
		}
		if e.Seq != r.n+1 {
			return Event{}, corrupt(off, "event sequence gap: got seq %d, want %d", e.Seq, r.n+1)
		}
		r.n++
		return e, nil
	case 't':
		if err := strictUnmarshal(payload, &r.trailer); err != nil {
			return Event{}, corrupt(off, "trailer: %v", err)
		}
		if r.trailer.Events != r.n {
			return Event{}, corrupt(off, "trailer counts %d events, stream has %d", r.trailer.Events, r.n)
		}
		// The trailer must be the last byte of the log.
		if _, err := r.br.ReadByte(); err != io.EOF {
			return Event{}, corrupt(r.off, "data after the trailer")
		}
		r.done = true
		return Event{}, io.EOF
	case 'h':
		return Event{}, corrupt(off, "second header record")
	default:
		return Event{}, corrupt(off, "unknown record type %q", typ)
	}
}

// next reads one framed record: <type><len>:<payload>\n.
func (r *Reader) next() (byte, []byte, error) {
	off := r.off
	typ, err := r.br.ReadByte()
	if err == io.EOF {
		return 0, nil, corrupt(off, "truncated: no trailer record")
	}
	if err != nil {
		return 0, nil, err
	}
	r.off++
	// Decimal length up to ':'.
	length := 0
	digits := 0
	for {
		b, err := r.br.ReadByte()
		if err == io.EOF {
			return 0, nil, corrupt(off, "truncated inside a length prefix")
		}
		if err != nil {
			return 0, nil, err
		}
		r.off++
		if b == ':' {
			break
		}
		if b < '0' || b > '9' {
			return 0, nil, corrupt(off, "invalid byte %q in length prefix", b)
		}
		length = length*10 + int(b-'0')
		digits++
		if digits > 8 || length > maxRecordLen {
			return 0, nil, corrupt(off, "record length exceeds %d bytes", maxRecordLen)
		}
	}
	if digits == 0 {
		return 0, nil, corrupt(off, "empty length prefix")
	}
	if cap(r.buf) < length+1 { // +1 for the trailing newline
		r.buf = make([]byte, length+1)
	}
	payload := r.buf[:length+1]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return 0, nil, corrupt(off, "truncated inside a %d-byte record", length)
	}
	r.off += int64(length) + 1
	if payload[length] != '\n' {
		return 0, nil, corrupt(off, "record is not newline-terminated (framing drift)")
	}
	return typ, payload[:length], nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, so a bit flip
// inside a field name reads as corruption rather than silently dropping
// the value.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// One JSON value per payload: trailing tokens are framing damage.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// Decode reads a whole in-memory log: header, every event, trailer.
func Decode(data []byte) (Header, []Event, Trailer, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Header{}, nil, Trailer{}, err
	}
	var events []Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return r.Header(), events, r.Trailer(), nil
		}
		if err != nil {
			return Header{}, nil, Trailer{}, err
		}
		events = append(events, e)
	}
}

// Encode is the inverse of Decode: it re-frames a decoded log. Encoding
// a decoded log reproduces the original bytes exactly (the round-trip
// stability FuzzEventLogRoundTrip pins), which is what lets replay
// verification compare logs byte-for-byte.
func Encode(w io.Writer, h Header, events []Event, tr Trailer) error {
	lw, err := NewWriter(w, h)
	if err != nil {
		return err
	}
	for _, e := range events {
		lw.Record(e)
	}
	return lw.Close(tr.SimEvents)
}
