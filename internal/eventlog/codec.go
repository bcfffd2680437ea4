package eventlog

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// This file is the event record codec. appendEvent writes the bytes
// json.Marshal(Event) writes — the same field order, omitempty rules,
// float formatting and string escaping — without reflection, and
// without allocating for the printable-ASCII identifiers the simulator
// emits; parseEvent reads that form back and defers every other payload
// to strictUnmarshal. Header and trailer records never come through
// here: they are rare and keep encoding/json.

// appendEvent appends the JSON encoding of e to b. Bytes and errors are
// json.Marshal(e)'s: a NaN or infinite float fails with the
// *json.UnsupportedValueError json.Marshal returns for it.
func appendEvent(b []byte, e *Event) ([]byte, error) {
	var err error
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t":`...)
	if b, err = appendFloat(b, e.T); err != nil {
		return b, err
	}
	b = append(b, `,"kind":`...)
	b = appendString(b, string(e.Kind))
	if e.Task != "" {
		b = appendString(append(b, `,"task":`...), e.Task)
	}
	if e.Node != "" {
		b = appendString(append(b, `,"node":`...), e.Node)
	}
	if e.File != "" {
		b = appendString(append(b, `,"file":`...), e.File)
	}
	if e.Phase != "" {
		b = appendString(append(b, `,"phase":`...), e.Phase)
	}
	// omitempty drops a float that compares equal to zero, -0 included;
	// NaN is not, so it reaches appendFloat and fails as in json.Marshal.
	if e.Size != 0 {
		if b, err = appendFloat(append(b, `,"size":`...), e.Size); err != nil {
			return b, err
		}
	}
	if e.Attempt != 0 {
		b = strconv.AppendInt(append(b, `,"attempt":`...), int64(e.Attempt), 10)
	}
	if e.Reason != "" {
		b = appendString(append(b, `,"reason":`...), e.Reason)
	}
	if e.Dur != 0 {
		if b, err = appendFloat(append(b, `,"dur":`...), e.Dur); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendFloat appends f as encoding/json's floatEncoder does for a
// float64: the shortest decimal that round-trips, in exponent form only
// below 1e-6 or from 1e21 up, with a single-digit negative exponent
// unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. The simulator's identifiers
// are printable ASCII and are copied between quotes; anything else is
// left to json.Marshal, whose escaping (the quote and backslash, the
// HTML characters <, > and &, U+2028 and U+2029, invalid UTF-8, control
// bytes) is the definition being matched.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// parseEvent decodes an event payload written in appendEvent's form,
// the only form the Writer produces. It reports false for any other
// payload — other spacing, key order or key spelling, an escape in a
// string, a number written another way, an uncatalogued kind — and the
// caller then decodes that payload with strictUnmarshal. The parsed
// event is accepted only if re-encoding it into enc reproduces p
// byte for byte, so parseEvent accepts a payload only where
// encoding/json would decode the same event. enc is returned for
// reuse.
func parseEvent(p, enc []byte) (Event, []byte, bool) {
	s := scanner{rest: p, ok: true}
	var e Event
	s.expect(`{"seq":`)
	e.Seq = s.parseUint()
	s.expect(`,"t":`)
	e.T = s.parseFloat()
	s.expect(`,"kind":`)
	e.Kind = s.kind()
	if s.key(`,"task":`) {
		e.Task = s.text()
	}
	if s.key(`,"node":`) {
		e.Node = s.text()
	}
	if s.key(`,"file":`) {
		e.File = s.text()
	}
	if s.key(`,"phase":`) {
		e.Phase = s.text()
	}
	if s.key(`,"size":`) {
		e.Size = s.parseFloat()
	}
	if s.key(`,"attempt":`) {
		e.Attempt = s.parseInt()
	}
	if s.key(`,"reason":`) {
		e.Reason = s.text()
	}
	if s.key(`,"dur":`) {
		e.Dur = s.parseFloat()
	}
	s.expect("}")
	if !s.ok || len(s.rest) != 0 {
		return Event{}, enc, false
	}
	enc, err := appendEvent(enc[:0], &e)
	if err != nil || !bytes.Equal(enc, p) {
		return Event{}, enc, false
	}
	return e, enc, true
}

// scanner walks a payload for parseEvent. The first mismatch clears ok,
// and every later step then returns a zero value.
type scanner struct {
	rest []byte // the bytes not yet consumed
	ok   bool
}

// key consumes lit if the rest starts with it.
func (s *scanner) key(lit string) bool {
	if !s.ok || len(s.rest) < len(lit) || string(s.rest[:len(lit)]) != lit {
		return false
	}
	s.rest = s.rest[len(lit):]
	return true
}

// expect consumes lit or fails the scan.
func (s *scanner) expect(lit string) {
	if !s.key(lit) {
		s.ok = false
	}
}

// number consumes a number literal: the bytes up to the next ',' or
// '}'. Whether they are JSON's spelling of the value is left to the
// re-encoding check.
func (s *scanner) number() []byte {
	i := 0
	for i < len(s.rest) && s.rest[i] != ',' && s.rest[i] != '}' {
		i++
	}
	lit := s.rest[:i]
	s.rest = s.rest[i:]
	return lit
}

func (s *scanner) parseUint() uint64 {
	if !s.ok {
		return 0
	}
	n, err := strconv.ParseUint(string(s.number()), 10, 64)
	s.ok = err == nil
	return n
}

func (s *scanner) parseInt() int {
	if !s.ok {
		return 0
	}
	n, err := strconv.Atoi(string(s.number()))
	s.ok = err == nil
	return n
}

func (s *scanner) parseFloat() float64 {
	if !s.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(s.number()), 64)
	s.ok = err == nil
	return f
}

// quoted consumes a string and returns the bytes between its quotes,
// which alias the payload. An escape sequence is not decoded: a string
// holding one fails the re-encoding check.
func (s *scanner) quoted() []byte {
	if !s.ok || len(s.rest) == 0 || s.rest[0] != '"' {
		s.ok = false
		return nil
	}
	n := bytes.IndexByte(s.rest[1:], '"')
	if n < 0 {
		s.ok = false
		return nil
	}
	body := s.rest[1 : 1+n]
	s.rest = s.rest[2+n:]
	return body
}

// text consumes a string and returns a copy of it.
func (s *scanner) text() string { return string(s.quoted()) }

// kind consumes a string naming a catalogued kind and returns the
// catalogue's constant for it.
func (s *scanner) kind() Kind {
	lit := s.quoted()
	for _, k := range kinds {
		if string(lit) == string(k) {
			return k
		}
	}
	s.ok = false
	return ""
}
