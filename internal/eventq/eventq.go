// Package eventq implements the discrete-event calendar used by the
// flow-level fabric simulator: a binary min-heap of timestamped events with
// deterministic FIFO tie-breaking.
//
// Determinism matters here: two events at the same timestamp must always pop
// in the order they were scheduled, or simulation runs stop being
// reproducible across refactors of unrelated code.
package eventq

type entry[E any] struct {
	time  float64
	seq   uint64
	event E
}

// Queue is a time-ordered calendar of events of type E, stored by value in
// the heap array. The zero value is ready to use. It is not safe for
// concurrent use; the simulator is single-threaded by design (parallelism
// comes from running independent simulations).
type Queue[E any] struct {
	heap      []entry[E]
	seq       uint64
	highWater int
}

// Len returns the number of pending events.
func (q *Queue[E]) Len() int { return len(q.heap) }

// HighWater returns the largest number of events that were ever pending
// simultaneously — the calendar's memory footprint, reported by the
// observability layer.
func (q *Queue[E]) HighWater() int { return q.highWater }

// Reserve grows the heap so at least n events can be pending at once
// without Schedule reallocating it. It never shrinks and pending events
// are unaffected.
func (q *Queue[E]) Reserve(n int) {
	if cap(q.heap) < n {
		heap := make([]entry[E], len(q.heap), n)
		copy(heap, q.heap)
		q.heap = heap
	}
}

// Schedule adds an event at the given time. Times may be in any order;
// equal times pop FIFO.
func (q *Queue[E]) Schedule(time float64, ev E) {
	q.seq++
	q.heap = append(q.heap, entry[E]{time: time, seq: q.seq, event: ev})
	if len(q.heap) > q.highWater {
		q.highWater = len(q.heap)
	}
	q.up(len(q.heap) - 1)
}

// PeekTime returns the timestamp of the earliest event. The second return
// is false when the queue is empty.
func (q *Queue[E]) PeekTime() (float64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].time, true
}

// Pop removes and returns the earliest event and its time. The third
// return is false when the queue is empty.
func (q *Queue[E]) Pop() (E, float64, bool) {
	if len(q.heap) == 0 {
		var zero E
		return zero, 0, false
	}
	e := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return e.event, e.time, true
}

func (q *Queue[E]) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *Queue[E]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *Queue[E]) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
