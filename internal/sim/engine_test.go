package sim

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(2, func() { got = append(got, 2) })
	e.At(1, func() { got = append(got, 1) })
	e.At(3, func() { got = append(got, 3) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %g, want 3", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(5, func() {})
}

// Pending reports the number of live (non-cancelled) events in the queue.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.events {
		if ev.fn != nil {
			n++
		}
	}
	return n
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(1, func() { fired = true })
	tm.Stop()
	e.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	drained := e.RunUntil(2.5)
	if drained {
		t.Error("RunUntil reported drained queue")
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1,2 only", fired)
	}
	if e.Now() != 2.5 {
		t.Errorf("Now() = %g, want 2.5", e.Now())
	}
	if !e.RunUntil(10) {
		t.Error("second RunUntil should drain")
	}
	if len(fired) != 4 {
		t.Errorf("fired %v, want all 4", fired)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake []float64
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(1.5)
		wake = append(wake, p.Now())
		p.Sleep(2.5)
		wake = append(wake, p.Now())
	})
	e.Run()
	if len(wake) != 2 || wake[0] != 1.5 || wake[1] != 4 {
		t.Errorf("wake times = %v, want [1.5 4]", wake)
	}
}

func TestProcNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Go("bad", func(p *Proc) { p.Sleep(-1) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from negative sleep")
		}
	}()
	e.Run()
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Go("boom", func(p *Proc) { panic("kaboom") })
	defer func() {
		const want = `sim: process "boom" panicked: kaboom`
		if r := recover(); r != want {
			t.Fatalf("Run panicked with %v, want %q", r, want)
		}
	}()
	e.Run()
}

// A process that parks through another process's handle is a bug the
// engine must name, not a silent switch into the wrong coroutine.
func TestParkingOtherProcPanics(t *testing.T) {
	e := NewEngine()
	b := e.Go("b", func(p *Proc) { p.Sleep(5) })
	e.Go("a", func(p *Proc) { b.Sleep(1) })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "b parking while not the running process") {
			t.Fatalf("Run panicked with %q, want the misuse of b named", msg)
		}
	}()
	e.Run()
}

func TestResumeFinishedProcPanics(t *testing.T) {
	e := NewEngine()
	p := e.Go("done", func(*Proc) {})
	e.Run()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "waking finished process") {
			t.Fatalf("Resume panicked with %q, want a finished-process panic", msg)
		}
	}()
	p.Resume()
}

// startHolder starts a process whose body captures a 1 MiB array and
// closes collected once the array is garbage collected. Building the
// array here keeps it off the test's own stack.
func startHolder(e *Engine, collected chan struct{}) *Proc {
	big := new([1 << 20]byte)
	runtime.AddCleanup(big, func(c chan struct{}) { close(c) }, collected)
	return e.Go("holder", func(p *Proc) {
		p.Sleep(1)
		big[0]++
	})
}

// TestFinishedProcPinsNothing pins that a finished process does not keep
// its body's closure alive. Finished Procs stay reachable after Run (a
// semaphore or mailbox pops waiters with s[1:], leaving them in the
// backing array), so any handle a Proc keeps to its body would pin
// whatever the body captured, a whole cell in practice.
func TestFinishedProcPinsNothing(t *testing.T) {
	e := NewEngine()
	collected := make(chan struct{})
	p := startHolder(e, collected)
	e.Run()
	deadline := time.Now().Add(time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		default:
			if time.Now().After(deadline) {
				t.Fatal("the finished process still pins its body's closure")
			}
			time.Sleep(time.Millisecond)
		}
	}
	runtime.KeepAlive(p)
}

func TestInterleavedProcsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(1)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// Same sleep times must interleave in spawn order.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("interleaving = %v, want %v", first, want)
		}
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "cores", 2)
	inUse, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Go("worker", func(p *Proc) {
			sem.Acquire(p, 1)
			inUse++
			if inUse > peak {
				peak = inUse
			}
			p.Sleep(10)
			inUse--
			sem.Release(1)
		})
	}
	e.Run()
	if peak != 2 {
		t.Errorf("peak concurrency = %d, want 2", peak)
	}
	if e.Now() != 30 {
		t.Errorf("makespan = %g, want 30 (3 waves of 10s)", e.Now())
	}
	if sem.Available() != 2 {
		t.Errorf("Available() = %d, want 2 after drain", sem.Available())
	}
}

func TestSemaphoreFIFONoBarging(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "mem", 4)
	var order []int
	// First proc takes everything; a big request queues ahead of a small
	// one; the small one must not barge past it.
	e.Go("hog", func(p *Proc) {
		sem.Acquire(p, 4)
		p.Sleep(10)
		sem.Release(4)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(1)
		sem.Acquire(p, 3)
		order = append(order, 3)
		sem.Release(3)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2)
		sem.Acquire(p, 1)
		order = append(order, 1)
		sem.Release(1)
	})
	e.Run()
	if len(order) != 2 || order[0] != 3 {
		t.Errorf("admission order = %v, want big (3) first", order)
	}
}

func TestSemaphoreOverCapacityPanics(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s", 2)
	e.Go("greedy", func(p *Proc) { sem.Acquire(p, 3) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for acquire > capacity")
		}
	}()
	e.Run()
}

func TestTryAcquire(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s", 2)
	if !sem.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on fresh semaphore failed")
	}
	if sem.TryAcquire(1) {
		t.Fatal("TryAcquire(1) succeeded on empty semaphore")
	}
	sem.Release(2)
	if !sem.TryAcquire(1) {
		t.Fatal("TryAcquire(1) after release failed")
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	wg.Add(3)
	doneAt := -1.0
	for i := 1; i <= 3; i++ {
		d := float64(i)
		e.Go("task", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 3 {
		t.Errorf("waiter released at %g, want 3", doneAt)
	}
}

func TestWaitGroupZeroCountNoBlock(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	ran := false
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	e.Run()
	if !ran {
		t.Error("Wait on zero-count group blocked forever")
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	m := NewMailbox[int](e)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
			m.Put(i)
		}
		m.Close()
	})
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := m.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 items", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestMailboxMultipleConsumers(t *testing.T) {
	e := NewEngine()
	m := NewMailbox[int](e)
	total := 0
	for c := 0; c < 3; c++ {
		e.Go("consumer", func(p *Proc) {
			for {
				v, ok := m.Get(p)
				if !ok {
					return
				}
				total += v
				p.Sleep(1)
			}
		})
	}
	e.Go("producer", func(p *Proc) {
		p.Sleep(0.5)
		for i := 1; i <= 9; i++ {
			m.Put(i)
		}
		m.Close()
	})
	e.Run()
	if total != 45 {
		t.Errorf("total = %d, want 45 (all items consumed once)", total)
	}
}

// TestMailboxSteadyStateAllocationFree: a mailbox with a standing
// backlog reuses its array, so a stream of Puts and Gets allocates
// nothing once warm, and still delivers in FIFO order.
func TestMailboxSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	m := NewMailbox[int](e)
	next, want := 0, 0
	for ; next < 8; next++ {
		m.Put(next)
	}
	churn := func() {
		for i := 0; i < 64; i++ {
			m.Put(next)
			next++
			// Items are queued, so Get returns without touching the proc.
			if v, _ := m.Get(nil); v != want {
				t.Fatalf("Get = %d, want %d (FIFO)", v, want)
			}
			want++
		}
	}
	churn() // warm up the array
	if allocs := testing.AllocsPerRun(100, churn); allocs > 0 {
		t.Errorf("mailbox churn allocated %.1f objects per 64 Put/Get pairs, want 0", allocs)
	}
	if m.Len() != 8 {
		t.Errorf("Len = %d, want the standing backlog of 8", m.Len())
	}
}

// TestMailboxParkedReceiverAllocationFree: a receiver that parks on an
// empty mailbox between items reuses the waiter queue's array too.
func TestMailboxParkedReceiverAllocationFree(t *testing.T) {
	e := NewEngine()
	m := NewMailbox[int](e)
	got := 0
	e.GoDaemon("receiver", func(p *Proc) {
		for {
			v, ok := m.Get(p)
			if !ok {
				return
			}
			got += v
		}
	})
	e.GoDaemon("sender", func(p *Proc) {
		for {
			p.Sleep(1)
			m.Put(1)
		}
	})
	e.RunUntil(10) // warm up
	if allocs := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 5) }); allocs > 0 {
		t.Errorf("parked-receiver churn allocated %.1f objects per 5 items, want 0", allocs)
	}
	if got < 500 {
		t.Errorf("receiver got %d items, want one per tick", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s", 1)
	e.Go("a", func(p *Proc) {
		sem.Acquire(p, 1)
		// Never released; second proc blocks forever.
	})
	e.Go("b", func(p *Proc) { sem.Acquire(p, 1) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e.Run()
}

// Property: for any set of (start, duration) jobs on an unbounded engine,
// the final clock equals max(start+duration) and every job observes its own
// wake time exactly.
func TestPropertySleepArithmetic(t *testing.T) {
	f := func(starts []uint16, durs []uint16) bool {
		n := len(starts)
		if len(durs) < n {
			n = len(durs)
		}
		if n == 0 {
			return true
		}
		if n > 50 {
			n = 50
		}
		e := NewEngine()
		maxEnd := 0.0
		ok := true
		for i := 0; i < n; i++ {
			s := float64(starts[i] % 1000)
			d := float64(durs[i] % 1000)
			end := s + d
			if end > maxEnd {
				maxEnd = end
			}
			e.Go("job", func(p *Proc) {
				p.Sleep(s)
				p.Sleep(d)
				if p.Now() != end {
					ok = false
				}
			})
		}
		e.Run()
		return ok && e.Now() == maxEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a semaphore never admits more than its capacity regardless of
// the request pattern.
func TestPropertySemaphoreNeverOversubscribed(t *testing.T) {
	f := func(caps uint8, reqs []uint8) bool {
		capacity := int(caps%8) + 1
		e := NewEngine()
		sem := NewSemaphore(e, "s", capacity)
		inUse, violated := 0, false
		n := len(reqs)
		if n > 40 {
			n = 40
		}
		for i := 0; i < n; i++ {
			need := int(reqs[i])%capacity + 1
			e.Go("w", func(p *Proc) {
				sem.Acquire(p, need)
				inUse += need
				if inUse > capacity {
					violated = true
				}
				p.Sleep(1)
				inUse -= need
				sem.Release(need)
			})
		}
		e.Run()
		return !violated && sem.Available() == capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The event free list must not let a stale Timer handle cancel an
// unrelated event that reuses the same record.
func TestStaleTimerStopDoesNotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	var fired []string
	tm := e.After(1, func() { fired = append(fired, "a") })
	if !e.step() { // fires "a"; its event record is recycled
		t.Fatal("no event to run")
	}
	e.After(1, func() { fired = append(fired, "b") }) // reuses the record
	tm.Stop()                                         // stale handle: must be a no-op
	e.Run()
	if len(fired) != 2 || fired[1] != "b" {
		t.Fatalf("fired = %v, want [a b] (stale Stop cancelled a recycled event)", fired)
	}
}

// ReTimer re-arming must behave like stop+schedule: only the last armed
// schedule fires, and firing order with respect to other events follows
// scheduling order exactly as for plain timers.
func TestReTimerRearmAndStop(t *testing.T) {
	e := NewEngine()
	var fired int
	rt := e.NewReTimer(func() { fired++ })
	rt.Arm(5)
	rt.Arm(2) // replaces the first schedule
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if e.Now() != 2 {
		t.Fatalf("fired at %g, want 2", e.Now())
	}
	rt.Arm(3)
	rt.Stop()
	e.Run()
	if fired != 1 {
		t.Fatalf("stopped ReTimer fired anyway (count %d)", fired)
	}
	// Stop after firing must not disturb a subsequent schedule that
	// reuses the recycled event record.
	rt.Arm(1)
	e.Run()
	rt.Stop()
	other := false
	e.After(1, func() { other = true })
	rt.Stop() // stale again
	e.Run()
	if fired != 2 || !other {
		t.Fatalf("fired=%d other=%v, want 2 true", fired, other)
	}
}

// Steady-state sleep churn must not allocate: event records and the
// process resume closure are reused.
func TestSleepChurnAllocationFree(t *testing.T) {
	e := NewEngine()
	e.GoDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	e.RunUntil(10) // warm up the free list
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 5)
	})
	if allocs > 0 {
		t.Errorf("sleep churn allocated %.1f objects per 5 ticks, want 0", allocs)
	}
}

// TestRunUnwindsParkedDaemons pins that a drained Run leaves no goroutine
// behind: a daemon blocked forever on a mailbox is unwound, its deferred
// calls run, its goroutine is gone by the time Run returns, and no event
// is scheduled on the way. The goroutine counts are one-sided because the
// previous test's goroutine may still be exiting, which only lowers them.
func TestRunUnwindsParkedDaemons(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	mb := NewMailbox[int](e)
	got, unwound := 0, false
	e.GoDaemon("server", func(p *Proc) {
		defer func() { unwound = true }()
		for {
			v, ok := mb.Get(p)
			if !ok {
				return
			}
			got += v
		}
	})
	e.Go("client", func(p *Proc) {
		mb.Put(1)
		p.Sleep(1)
		mb.Put(2)
	})
	if !e.RunUntil(100) {
		t.Fatal("queue did not drain")
	}
	parked := runtime.NumGoroutine()
	scheduled := e.Scheduled()
	e.Run()
	n := runtime.NumGoroutine()
	if got != 3 {
		t.Errorf("daemon received %d, want 3", got)
	}
	if !unwound {
		t.Error("the daemon's deferred calls did not run")
	}
	if e.Scheduled() != scheduled {
		t.Errorf("unwinding scheduled %d event(s)", e.Scheduled()-scheduled)
	}
	if n >= parked {
		t.Errorf("the daemon's goroutine outlived Run: %d goroutines before Run, %d after", parked, n)
	}
	if n > base {
		t.Errorf("%d goroutines after Run, %d before the engine existed", n, base)
	}
}
