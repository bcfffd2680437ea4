package sim

// Mailbox is an unbounded FIFO queue connecting simulation processes, the
// simulated analogue of a Go channel. Senders never block; receivers block
// until an item is available. Items are delivered in insertion order and
// blocked receivers are served FIFO.
type Mailbox[T any] struct {
	e       *Engine
	items   []T
	waiters []*Proc
	closed  bool
}

// NewMailbox returns an empty mailbox.
func NewMailbox[T any](e *Engine) *Mailbox[T] {
	return &Mailbox[T]{e: e}
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// Put enqueues v, waking one blocked receiver if any.
func (m *Mailbox[T]) Put(v T) {
	if m.closed {
		panic("sim: Put on closed mailbox")
	}
	m.items = append(m.items, v)
	m.wakeOne()
}

// Close marks the mailbox closed. Blocked and future receivers drain the
// remaining items and then receive the zero value with ok == false.
func (m *Mailbox[T]) Close() {
	if m.closed {
		return
	}
	m.closed = true
	for _, p := range m.waiters {
		m.e.wake(p)
	}
	m.waiters = nil
}

func (m *Mailbox[T]) wakeOne() {
	if len(m.waiters) > 0 {
		p := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.e.wake(p)
	}
}

// Get dequeues the next item, blocking p until one is available. It
// returns ok == false when the mailbox is closed and drained.
func (m *Mailbox[T]) Get(p *Proc) (v T, ok bool) {
	for {
		if len(m.items) > 0 {
			v = m.items[0]
			var zero T
			m.items[0] = zero
			m.items = m.items[1:]
			// If items remain and other receivers are parked, hand one on.
			if len(m.items) > 0 {
				m.wakeOne()
			}
			return v, true
		}
		if m.closed {
			return v, false
		}
		m.waiters = append(m.waiters, p)
		p.suspend()
	}
}
