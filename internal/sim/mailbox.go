package sim

// Mailbox is an unbounded FIFO queue connecting simulation processes, the
// simulated analogue of a Go channel. Senders never block; receivers block
// until an item is available. Items are delivered in insertion order and
// blocked receivers are served FIFO.
type Mailbox[T any] struct {
	e       *Engine
	items   fifo[T]
	waiters fifo[*Proc]
	closed  bool
}

// NewMailbox returns an empty mailbox.
func NewMailbox[T any](e *Engine) *Mailbox[T] {
	return &Mailbox[T]{e: e}
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return m.items.len() }

// Put enqueues v, waking one blocked receiver if any.
func (m *Mailbox[T]) Put(v T) {
	if m.closed {
		panic("sim: Put on closed mailbox")
	}
	m.items.push(v)
	m.wakeOne()
}

// Close marks the mailbox closed. Blocked and future receivers drain the
// remaining items and then receive the zero value with ok == false.
func (m *Mailbox[T]) Close() {
	if m.closed {
		return
	}
	m.closed = true
	for m.waiters.len() > 0 {
		m.e.wake(m.waiters.pop())
	}
}

func (m *Mailbox[T]) wakeOne() {
	if m.waiters.len() > 0 {
		m.e.wake(m.waiters.pop())
	}
}

// Get dequeues the next item, blocking p until one is available. It
// returns ok == false when the mailbox is closed and drained.
func (m *Mailbox[T]) Get(p *Proc) (v T, ok bool) {
	for {
		if m.items.len() > 0 {
			v = m.items.pop()
			// If items remain and other receivers are parked, hand one on.
			if m.items.len() > 0 {
				m.wakeOne()
			}
			return v, true
		}
		if m.closed {
			return v, false
		}
		m.waiters.push(p)
		p.suspend()
	}
}
