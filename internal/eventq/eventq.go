// Package eventq implements the discrete-event calendar used by the
// flow-level fabric simulator: a binary min-heap of timestamped events with
// deterministic FIFO tie-breaking.
//
// Determinism matters here: two events at the same timestamp must always pop
// in the order they were scheduled, or simulation runs stop being
// reproducible across refactors of unrelated code.
package eventq

// Event is anything that can be scheduled. The queue never calls into the
// event; it only orders and returns it.
type Event interface{}

// Handle identifies a scheduled event. A Handle is valid until the event
// pops or the queue is cleared. Entries are recycled after they leave the
// heap, so each handle carries the generation of the entry it was issued
// against; a handle to a popped event stays invalid even after its entry
// is reused for a later Schedule.
type Handle struct {
	entry *entry
	gen   uint64
}

// Valid reports whether the handle still refers to a pending event.
func (h Handle) Valid() bool {
	return h.entry != nil && h.entry.gen == h.gen && h.entry.index >= 0
}

type entry struct {
	time  float64
	seq   uint64
	event Event
	index int    // position in heap, -1 once removed
	gen   uint64 // bumped when the entry is recycled; invalidates old Handles
}

// Queue is a time-ordered event calendar. The zero value is ready to use.
// It is not safe for concurrent use; the simulator is single-threaded by
// design (parallelism comes from running independent simulations).
//
// Entries removed from the heap (popped or cleared) go to an internal
// free list and are reused by later Schedules, so in steady state —
// arrivals balancing departures — the calendar performs no allocations.
// Reserve pre-sizes both the heap and the free list for a known event
// population.
type Queue struct {
	heap      []*entry
	free      []*entry
	seq       uint64
	highWater int
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// HighWater returns the largest number of events that were ever pending
// simultaneously — the calendar's memory footprint, reported by the
// observability layer.
func (q *Queue) HighWater() int { return q.highWater }

// Reserve grows the calendar's storage so at least n events can be
// pending at once without the heap reallocating or Schedule touching the
// allocator. It never shrinks and pending events are unaffected.
func (q *Queue) Reserve(n int) {
	if cap(q.heap) < n {
		heap := make([]*entry, len(q.heap), n)
		copy(heap, q.heap)
		q.heap = heap
	}
	for len(q.heap)+len(q.free) < n {
		q.free = append(q.free, &entry{index: -1})
	}
}

// Schedule adds an event at the given time and returns its handle. Times
// may be in any order; equal times pop FIFO.
func (q *Queue) Schedule(time float64, ev Event) Handle {
	q.seq++
	var e *entry
	if k := len(q.free); k > 0 {
		e = q.free[k-1]
		q.free[k-1] = nil
		q.free = q.free[:k-1]
	} else {
		e = &entry{}
	}
	e.time = time
	e.seq = q.seq
	e.event = ev
	e.index = len(q.heap)
	q.heap = append(q.heap, e)
	if len(q.heap) > q.highWater {
		q.highWater = len(q.heap)
	}
	q.up(e.index)
	return Handle{entry: e, gen: e.gen}
}

// PeekTime returns the timestamp of the earliest event. The second return
// is false when the queue is empty.
func (q *Queue) PeekTime() (float64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].time, true
}

// Pop removes and returns the earliest event and its time. The second
// return is false when the queue is empty.
func (q *Queue) Pop() (Event, float64, bool) {
	if len(q.heap) == 0 {
		return nil, 0, false
	}
	e := q.heap[0]
	// Capture before recycle drops the event.
	ev, t := e.event, e.time
	last := len(q.heap) - 1
	if last > 0 {
		q.swap(0, last)
	}
	q.heap = q.heap[:last]
	q.recycle(e)
	if last > 0 {
		q.down(0)
	}
	return ev, t, true
}

// Clear drops all pending events and recycles their entries.
func (q *Queue) Clear() {
	for _, e := range q.heap {
		q.recycle(e)
	}
	q.heap = q.heap[:0]
}

// recycle retires an entry that just left the heap: invalidate any
// outstanding handles via the generation bump, drop the event reference
// so the calendar does not pin it for the GC, and return the entry to the
// free list.
func (q *Queue) recycle(e *entry) {
	e.index = -1
	e.gen++
	e.event = nil
	q.free = append(q.free, e)
}

func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
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
		q.swap(i, smallest)
		i = smallest
	}
}
