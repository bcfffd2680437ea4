// Package sim implements a deterministic discrete-event simulation engine
// with coroutine processes.
//
// The engine owns a virtual clock (float64 seconds) and an event heap.
// Simulation logic is written as ordinary sequential Go code inside
// processes (see Proc); a process that sleeps or blocks on a synchronization
// primitive parks, switching straight back to the engine, which advances
// the clock to the next event. Processes are iter.Pull coroutines on the
// goroutine that calls Run, so exactly one of the engine or a single
// process runs at any instant, simulation state needs no locking, and runs
// are bit-for-bit reproducible: events at equal times fire in scheduling
// order (FIFO by sequence number).
//
// Event records are recycled through a free list: a simulation that
// schedules millions of sleeps and timer re-arms (the flow network's
// steady-state transfer churn) allocates a bounded number of event structs
// rather than one per schedule. Recycling is guarded by a per-event
// generation counter so a stale Timer handle can never cancel an unrelated
// event that happens to reuse the same record.
package sim

import (
	"fmt"
)

// event is a scheduled callback.
type event struct {
	at  float64
	seq int64
	fn  func()
	// gen distinguishes successive uses of a recycled event record;
	// Timer/ReTimer handles remember the generation they scheduled and
	// become no-ops once it moves on.
	gen uint64
}

// eventHeap is a min-heap ordered by (time, sequence). The sift
// routines are open-coded (rather than container/heap over an
// interface) because every simulated event pays for one push and one
// pop: the comparisons inline and the boxing disappears. The algorithms
// match container/heap exactly, so the heap layout — and therefore the
// order of equal-time events — is unchanged.
type eventHeap []*event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) pushEvent(ev *event) {
	h := append(e.events, ev)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !eventLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	e.events = h
}

func (e *Engine) popEvent() *event {
	h := e.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && eventLess(h[r], h[j]) {
			j = r
		}
		if !eventLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e.events = h
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     float64
	seq     int64
	events  eventHeap
	free    []*event // recycled event records
	cur     *Proc
	procSeq int
	live    int     // number of live (started, unfinished) processes
	daemons []*Proc // every GoDaemon process, unwound when Run drains
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Scheduled returns the total number of events ever scheduled on the
// engine — a deterministic fingerprint of the run's internal activity.
// Run-artifact trailers record it so replay verification cross-checks
// the engine's behaviour beyond the emitted event stream.
func (e *Engine) Scheduled() int64 { return e.seq }

// schedule enqueues fn at absolute time t, reusing a recycled event record
// when one is available. It is the allocation-free core of At/After and the
// process wakeup path.
func (e *Engine) schedule(t float64, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", t, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = t, e.seq, fn
	} else {
		ev = &event{at: t, seq: e.seq, fn: fn}
	}
	e.pushEvent(ev)
	return ev
}

// recycle returns a popped event record to the free list for reuse.
// Bumping the generation invalidates any Timer/ReTimer still holding it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a simulation bug.
func (e *Engine) At(t float64, fn func()) *Timer {
	ev := e.schedule(t, fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Timer {
	return e.At(e.now+d, fn)
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer if it has not fired. A stopped event's slot stays
// in the heap with a nil fn and is skipped (and recycled) when popped.
// Stopping a timer whose event already fired is a no-op: the generation
// check keeps a stale handle from cancelling a recycled record.
func (t *Timer) Stop() {
	if t != nil && t.ev != nil {
		if t.ev.gen == t.gen {
			t.ev.fn = nil
		}
		t.ev = nil
	}
}

// ReTimer is a reusable one-shot timer bound to a fixed callback. Arm
// schedules the callback, replacing any previous schedule; after creation,
// arming and stopping never allocate (event records come from the engine's
// free list). It exists for hot paths that re-arm one logical timer on
// every event — the flow network's completion timer.
type ReTimer struct {
	e   *Engine
	fn  func()
	ev  *event
	gen uint64
}

// NewReTimer returns an unarmed reusable timer that runs fn when it fires.
func (e *Engine) NewReTimer(fn func()) *ReTimer {
	return &ReTimer{e: e, fn: fn}
}

// Arm schedules the timer's callback d seconds from now, cancelling any
// previously armed schedule.
func (t *ReTimer) Arm(d float64) {
	t.Stop()
	ev := t.e.schedule(t.e.now+d, t.fn)
	t.ev, t.gen = ev, ev.gen
}

// Stop cancels the armed schedule, if any. Safe after the timer fired.
func (t *ReTimer) Stop() {
	if t.ev != nil {
		if t.ev.gen == t.gen {
			t.ev.fn = nil
		}
		t.ev = nil
	}
}

// step pops and runs the next event. It reports false when the queue is
// empty.
func (e *Engine) step() bool {
	for len(e.events) > 0 {
		ev := e.popEvent()
		if ev.fn == nil {
			e.recycle(ev) // cancelled
			continue
		}
		if ev.at < e.now {
			panic("sim: event heap time went backwards")
		}
		e.now = ev.at
		fn := ev.fn
		fn()
		e.recycle(ev)
		return true
	}
	return false
}

// Run executes events until the queue is empty, then unwinds every
// daemon still parked (see unwindDaemons). If a process panicked, Run
// panics with the process's name and value. Run ends the simulation: to
// advance an engine in steps, use RunUntil.
func (e *Engine) Run() {
	for e.step() {
	}
	if e.live > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) still blocked with no pending events", e.live))
	}
	e.unwindDaemons()
}

// unwindDaemons ends the coroutine of every daemon still parked once the
// queue has drained. Nothing is left to wake them, and a parked coroutine
// would keep its closure — and through it the engine, the network and
// every cache — reachable for the life of the host process. Each daemon
// is stopped directly, without scheduling an event (so Scheduled is
// unchanged): its park panics with errUnwind, which runs its deferred
// calls (they must not block) and is recovered where the body started.
func (e *Engine) unwindDaemons() {
	for i, p := range e.daemons {
		e.daemons[i] = nil
		if !p.finished {
			p.stop()
		}
	}
	e.daemons = e.daemons[:0]
}

// RunUntil executes events with time <= t, then sets the clock to t.
// It returns true if the queue drained before t.
func (e *Engine) RunUntil(t float64) bool {
	for len(e.events) > 0 {
		// Peek at the next live event.
		if e.events[0].fn == nil {
			e.recycle(e.popEvent())
			continue
		}
		if e.events[0].at > t {
			e.now = t
			return false
		}
		e.step()
	}
	e.now = t
	return true
}

// wake schedules p to resume at the current time. It is the only way a
// suspended process gets control back, which keeps all wakeups ordered
// through the event queue.
func (e *Engine) wake(p *Proc) {
	if p.finished {
		panic("sim: waking finished process " + p.name)
	}
	e.schedule(e.now, p.resumeFn)
}

// resume switches to a parked process and returns once it parks again or
// ends. A panic in the process leaves through here, wrapped by start.
func (e *Engine) resume(p *Proc) {
	if p.finished {
		panic("sim: resuming finished process " + p.name)
	}
	prev := e.cur
	e.cur = p
	p.next()
	e.cur = prev
}
