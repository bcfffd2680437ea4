package sim

// fifo is a first-in, first-out queue over one reused array. A pop only
// advances the head index, which rewinds when the queue drains; once the
// head passes half the array's capacity, the queued items move to the
// front. A steady flow through the queue thus stops reallocating, where
// reslicing items[1:] would give up the array's front on every pop and
// make the next push reallocate.
type fifo[T any] struct {
	items []T // items[head:] are queued, oldest first
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

// front returns the oldest item; the queue must not be empty.
func (q *fifo[T]) front() T { return q.items[q.head] }

// pop removes and returns the oldest item, zeroing its slot so that the
// array keeps nothing reachable. The queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.items):
		q.items, q.head = q.items[:0], 0
	case q.head > cap(q.items)/2:
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v
}
