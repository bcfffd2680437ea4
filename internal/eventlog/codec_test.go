package eventlog

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"
)

// sameEvent reports whether two events are equal field for field, with
// floats compared by bit pattern so that -0 and +0 differ.
func sameEvent(a, b Event) bool {
	return a == b &&
		math.Float64bits(a.T) == math.Float64bits(b.T) &&
		math.Float64bits(a.Size) == math.Float64bits(b.Size) &&
		math.Float64bits(a.Dur) == math.Float64bits(b.Dur)
}

// checkEncoding fails t unless appendEvent writes json.Marshal's bytes
// for e, or fails with json.Marshal's error.
func checkEncoding(t *testing.T, e Event) {
	t.Helper()
	want, werr := json.Marshal(e)
	got, gerr := appendEvent(nil, &e)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%#v: appendEvent error %v, json.Marshal error %v", e, gerr, werr)
	case werr != nil:
		if gerr.Error() != werr.Error() {
			t.Fatalf("%#v: appendEvent error %q, json.Marshal error %q", e, gerr, werr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("%#v:\nappendEvent  %s\njson.Marshal %s", e, got, want)
	}
}

// FuzzEventEncodingMatchesJSON pins the encoder to its definition:
// for any field values, NaN and infinities included, appendEvent writes
// exactly json.Marshal's bytes, and the two fail together with the same
// error.
func FuzzEventEncodingMatchesJSON(f *testing.F) {
	for _, e := range testEvents() {
		f.Add(uint64(7), e.T, string(e.Kind), e.Task, e.Node, e.File, e.Phase, e.Size, e.Attempt, e.Reason, e.Dur)
	}
	f.Add(uint64(1), math.NaN(), "node-up", "", "w0", "", "", 0.0, 0, "", 0.0)
	f.Add(uint64(2), 1.0, "xfer-drain", "t", "w0", "f", "input", math.Inf(1), 0, "", 0.0)
	f.Add(uint64(3), 1.0, "outage-begin", "", "w0", "", "", 0.0, 0, "", math.Inf(-1))
	f.Add(uint64(math.MaxUint64), math.Copysign(0, -1), "", "<&>", "\u2028", "\xff", "\x00\b\f\n\r\t", math.Copysign(0, -1), -1, `"\`, 1e-7)
	f.Add(uint64(0), 1e21, "bogus", "é", "x", "y", "z", 123456.789, math.MinInt64, "r", 5e-324)
	f.Fuzz(func(t *testing.T, seq uint64, tm float64, kind, task, node, file, phase string, size float64, attempt int, reason string, dur float64) {
		checkEncoding(t, Event{
			Seq: seq, T: tm, Kind: Kind(kind), Task: task, Node: node, File: file,
			Phase: phase, Size: size, Attempt: attempt, Reason: reason, Dur: dur,
		})
	})
}

// canonical reports whether p is exactly what the Writer would write for
// e, a catalogued kind, with no escape sequence in any string.
// parseEvent must accept every such payload.
func canonical(e Event, p []byte) bool {
	for _, s := range []string{e.Task, e.Node, e.File, e.Phase, e.Reason} {
		if q, _ := json.Marshal(s); string(q) != `"`+s+`"` {
			return false
		}
	}
	want, err := json.Marshal(e)
	return err == nil && e.Kind.Valid() && bytes.Equal(want, p)
}

// FuzzEventDecodingMatchesStrict pins the reader's event decoding to
// strictUnmarshal. The reader tries parseEvent first and hands every
// payload it rejects to strictUnmarshal, so the two agree on all input —
// both reject, or both accept with equal events — exactly when every
// payload parseEvent accepts is one strictUnmarshal accepts and decodes
// to the same bits. The fuzzer also checks the converse that makes the
// fast path worth having: parseEvent takes every payload in the
// Writer's own form.
func FuzzEventDecodingMatchesStrict(f *testing.F) {
	events := testEvents()
	for _, k := range kinds {
		events = append(events, Event{T: 3.5, Kind: k, Task: "t-1", Node: "w1", File: "f.fits", Phase: "output",
			Size: 1e-7, Attempt: 2, Reason: "outage", Dur: 1e21})
	}
	for i, e := range events {
		e.Seq = uint64(i + 1)
		p, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	for _, p := range []string{
		`{"seq": 1,"t":0,"kind":"node-up","node":"w0"}`,
		`{"seq":1, "t":0,"kind":"node-up","node":"w0"}`,
		`{"t":0,"seq":1,"kind":"node-up","node":"w0"}`,
		`{"SEQ":1,"t":0,"kind":"node-up","node":"w0"}`,
		`{"seq":1,"t":0,"kind":"node-up","node":"w0","node":"w1"}`,
		`{"seq":1,"t":1e2,"kind":"node-up","node":"w0"}`,
		`{"seq":1,"t":01,"kind":"node-up","node":"w0"}`,
		`{"seq":1,"t":0x1p1,"kind":"node-up","node":"w0"}`,
		`{"seq":1,"t":0,"kind":"task-start","task":"\u0041-0","node":"w0","attempt":1}`,
		`{"seq":1,"t":0,"kind":"cache-hit","node":"w0","file":"f","size":-0}`,
		`{"seq":1,"t":0,"kind":"task-start","task":"a","node":"w0","attempt":1.0}`,
		`{"seq":1,"t":-0,"kind":"node-up","node":"w0"}`,
		`{"seq":1,"t":0,"kind":"node-up","node":"w0"} `,
		`{"seq":1,"t":0,"kind":"node-up","node":"w0","size":0}`,
		`{"seq":1,"t":0,"kind":"no-such-kind"}`,
		`{"seq":1,"t":0,"kind":"node-up","node":"w0"`,
		`{"seq":1,"t":0,"kind":"node-up","node":"wörker"}`,
		"{\"seq\":1,\"t\":0,\"kind\":\"node-up\",\"node\":\"w\xff\"}",
		`{"seq":1,"t":0,"kind":"task-retry","task":"a\"b"}`,
		`{"seq":1,"t":0,"kind":"task-retry","task":"a\u003cb"}`,
	} {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		fast, _, ok := parseEvent(p, nil)
		var strict Event
		err := strictUnmarshal(p, &strict)
		switch {
		case ok && err != nil:
			t.Fatalf("parseEvent accepted %q, strictUnmarshal rejects it: %v", p, err)
		case ok && !sameEvent(fast, strict):
			t.Fatalf("%q: parseEvent decoded %#v, strictUnmarshal %#v", p, fast, strict)
		case !ok && err == nil && canonical(strict, p):
			t.Fatalf("parseEvent rejected the canonical payload %q", p)
		}
	})
}

// TestEventEncodingEdgeCases pins, beyond the fuzzer's corpus, each
// rule encoding/json applies that the encoder reproduces: -0, exponent
// cut-offs, HTML and line-separator escapes, invalid UTF-8, control
// bytes and negative integers.
func TestEventEncodingEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for name, e := range map[string]Event{
		"-0 time":             {Seq: 1, T: negZero, Kind: NodeUp, Node: "w0"},
		"-0 size":             {Seq: 2, T: 1, Kind: CacheHit, Node: "w0", File: "f", Size: negZero},
		"-0 dur":              {Seq: 3, T: 1, Kind: OutageBegin, Node: "w0", Dur: negZero},
		"1e-7":                {Seq: 4, T: 1e-7, Kind: TransferDrain, Size: -1e-7, Dur: 1e-7},
		"1e21":                {Seq: 5, T: 1e21, Kind: TransferDrain, Size: 1e21, Dur: -1e21},
		"just below 1e21":     {Seq: 6, T: 999999999999999900000, Kind: NodeUp},
		"123456.789":          {Seq: 7, T: 123456.789, Kind: CheckpointWrite, Size: 123456.789},
		"html characters":     {Seq: 8, Kind: TaskStart, Task: "<a&b>", Node: "w>0", Attempt: 1},
		"line separators":     {Seq: 9, Kind: TaskStart, Task: "a\u2028b\u2029c", Attempt: 1},
		"invalid utf-8":       {Seq: 10, Kind: TransferStart, File: "\xff\xfe/in", Phase: "input\x80"},
		"control bytes":       {Seq: 11, Kind: TaskFail, Task: "\x00\b\f\n\r\t\x1f\x7f", Reason: "in\"jected\\"},
		"negative attempt":    {Seq: 12, Kind: TaskRetry, Task: "t", Attempt: -3},
		"non-ascii plain":     {Seq: 13, Kind: NodeUp, Node: "wörker"},
		"uncatalogued kind":   {Seq: 14, Kind: "not-a-kind"},
		"largest seq":         {Seq: math.MaxUint64, T: math.MaxFloat64, Kind: NodeDown},
		"smallest subnormal":  {Seq: 15, T: 5e-324, Kind: NodeDown},
		"NaN time":            {Seq: 16, T: math.NaN(), Kind: NodeUp},
		"infinite size":       {Seq: 17, Kind: CacheMiss, Size: math.Inf(-1)},
		"NaN dur after +Inf":  {Seq: 18, Kind: TransferDrain, Size: math.Inf(1), Dur: math.NaN()},
		"every field nonzero": {Seq: 19, T: 2.5, Kind: TransferDrain, Task: "t", Node: "n", File: "f", Phase: "p", Size: 3, Attempt: 4, Reason: "r", Dur: 0.125},
	} {
		t.Run(name, func(t *testing.T) { checkEncoding(t, e) })
	}
}

// drainEvent is a typical transfer-completion event, the most frequent
// and widest record a run emits.
var drainEvent = Event{T: 0.97, Kind: TransferDrain, Task: "mProject-0001", Node: "worker1",
	File: "region_0001.fits", Phase: "input", Size: 4.2e6, Dur: 0.5625}

// TestRecordAllocationFree pins that recording is allocation-free once
// the Writer's buffers have grown: the encoder uses no reflection and
// the payload buffer is reused.
func TestRecordAllocationFree(t *testing.T) {
	w, err := NewWriter(io.Discard, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() { w.Record(drainEvent) }); allocs != 0 {
		t.Errorf("Writer.Record allocated %.1f objects per event, want 0", allocs)
	}
	if err := w.Close(0); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWriterRecord measures encoding and framing one event.
func BenchmarkWriterRecord(b *testing.B) {
	w, err := NewWriter(io.Discard, testHeader())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		w.Record(drainEvent)
	}
	if err := w.Close(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDecode measures decoding a whole in-memory log of 10,000
// events cycling through the kinds and field shapes of testEvents.
func BenchmarkDecode(b *testing.B) {
	base := testEvents()
	events := make([]Event, 10000)
	for i := range events {
		events[i] = base[i%len(base)]
		events[i].T += float64(i)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, testHeader(), events, Trailer{SimEvents: 1}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
