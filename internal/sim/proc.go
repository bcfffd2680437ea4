package sim

import (
	"errors"
	"fmt"
	"iter"
)

// Proc is a simulation process: sequential simulation logic that runs as a
// coroutine on the engine's goroutine and yields to the engine whenever it
// sleeps or blocks. A Proc must only be used from its own body (the
// function passed to Engine.Go).
type Proc struct {
	e        *Engine
	name     string
	id       int
	finished bool
	daemon   bool
	// next runs the body until it parks or ends, yield parks it and stop
	// unwinds it (see start).
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// resumeFn is the pre-bound resume callback scheduled by Sleep and
	// wake; binding it once keeps the park/resume cycle allocation-free.
	resumeFn func()
}

// errUnwind is what park panics with when Engine.Run stops a parked
// daemon; start recovers it, so the daemon's deferred calls run and its
// coroutine ends quietly. Exiting the goroutine instead would not do:
// iter.Pull re-raises such an exit in the goroutine that called stop.
var errUnwind = errors.New("sim: daemon unwound")

// Go starts a new process running fn. The process begins executing at the
// current simulation time (as a scheduled event, so the caller continues
// first). The name appears in deadlock and misuse panics.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{e: e, name: name, id: e.procSeq}
	p.resumeFn = func() { e.resume(p) }
	e.live++
	e.At(e.now, func() { e.start(p, fn) })
	return p
}

// GoDaemon starts a background service process (e.g. a file server's
// write-back flusher). Daemons may stay blocked forever without tripping
// the engine's deadlock detector: when only daemons remain parked and the
// event queue is empty, Run unwinds them and returns.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Proc {
	p := e.Go(name, fn)
	p.daemon = true
	e.live--
	e.daemons = append(e.daemons, p)
	return p
}

// start pulls p's body as a coroutine and runs it to its first park. Every
// way the body ends (return, panic, unwind) drops the coroutine handles:
// a finished Proc can stay reachable from a waiter list, and the handles
// would pin its body closure. A panic is re-raised with the process named;
// iter.Pull carries it out of the engine's next or stop call.
func (e *Engine) start(p *Proc, fn func(p *Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			p.finished = true
			p.next, p.stop, p.yield = nil, nil, nil
			if !p.daemon {
				e.live--
			}
			if r != nil && r != errUnwind {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}()
		fn(p)
	})
	e.resume(p)
}

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.e.now }

// park yields control to the engine until resumed. If Engine.Run stops
// the process instead, yield returns false and park unwinds the body.
func (p *Proc) park() {
	if p.e.cur != p {
		panic("sim: " + p.name + " parking while not the running process")
	}
	if !p.yield(struct{}{}) {
		panic(errUnwind)
	}
}

// suspend parks the process with no scheduled wakeup; some other component
// must eventually call Engine.wake (via a synchronization primitive).
func (p *Proc) suspend() { p.park() }

// Suspend parks the process until some other component calls Resume. It is
// the low-level blocking primitive used by custom synchronization (e.g.
// the flow network's transfer completions).
func (p *Proc) Suspend() { p.suspend() }

// Resume schedules a suspended process to continue at the current time.
// The wakeup flows through the event queue, preserving determinism.
func (p *Proc) Resume() { p.e.wake(p) }

// Sleep advances the process by d simulated seconds. Negative durations
// panic; zero sleeps still round-trip through the event queue, which makes
// them a deterministic yield point.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s sleeping for negative duration %g", p.name, d))
	}
	p.e.schedule(p.e.now+d, p.resumeFn)
	p.park()
}
