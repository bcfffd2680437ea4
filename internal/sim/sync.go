package sim

import "fmt"

// Semaphore is a counted resource with FIFO admission. Acquire blocks the
// calling process until the requested units are available; units are
// granted strictly in request order (no barging), which models batch-slot
// and memory admission in the cluster.
type Semaphore struct {
	e        *Engine
	name     string
	capacity int
	avail    int
	waiters  fifo[semWaiter]
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(e *Engine, name string, capacity int) *Semaphore {
	if capacity < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{e: e, name: name, capacity: capacity, avail: capacity}
}

// Capacity returns the total units.
func (s *Semaphore) Capacity() int { return s.capacity }

// Available returns the currently free units.
func (s *Semaphore) Available() int { return s.avail }

// InUse returns capacity minus available.
func (s *Semaphore) InUse() int { return s.capacity - s.avail }

// Acquire takes n units, blocking p until they are available. Requesting
// more than the total capacity panics (it would deadlock forever).
func (s *Semaphore) Acquire(p *Proc, n int) {
	if n < 0 {
		panic("sim: negative semaphore acquire on " + s.name)
	}
	if n > s.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d of %s", n, s.capacity, s.name))
	}
	if s.waiters.len() == 0 && s.avail >= n {
		s.avail -= n
		return
	}
	s.waiters.push(semWaiter{p: p, n: n})
	p.suspend()
}

// TryAcquire takes n units if immediately available, reporting success.
func (s *Semaphore) TryAcquire(n int) bool {
	if n < 0 || n > s.capacity {
		return false
	}
	if s.waiters.len() == 0 && s.avail >= n {
		s.avail -= n
		return true
	}
	return false
}

// Release returns n units and admits as many FIFO waiters as now fit.
func (s *Semaphore) Release(n int) {
	if n < 0 {
		panic("sim: negative semaphore release on " + s.name)
	}
	s.avail += n
	if s.avail > s.capacity {
		panic(fmt.Sprintf("sim: release overflows capacity of %s (%d > %d)", s.name, s.avail, s.capacity))
	}
	s.admit()
}

// admit wakes queued waiters, in order, while they fit.
func (s *Semaphore) admit() {
	for s.waiters.len() > 0 && s.waiters.front().n <= s.avail {
		w := s.waiters.pop()
		s.avail -= w.n
		s.e.wake(w.p)
	}
}

// WaitGroup counts outstanding work, waking all waiters when the count
// reaches zero.
type WaitGroup struct {
	e       *Engine
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a wait group with count 0.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{e: e} }

// Add adds delta (which may be negative) to the count.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			w.e.wake(p)
		}
		w.waiters = nil
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count is zero. A zero count returns immediately.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.suspend()
}
