package eventq

import "fmt"

// EntryState is one pending calendar entry handed to RestoreState; Time
// and Seq come from a prior Entries walk.
type EntryState[E any] struct {
	Time  float64
	Seq   uint64
	Event E
}

// Entries calls fn for every pending entry in heap-array order — the
// order RestoreState expects back. Callers serialize the events
// themselves.
func (q *Queue[E]) Entries(fn func(time float64, seq uint64, ev E)) {
	for _, e := range q.heap {
		fn(e.time, e.seq, e.event)
	}
}

// Seq returns the FIFO tie-break counter: the sequence number the most
// recent Schedule consumed. Restoring it is what keeps same-timestamp
// events popping in their original order after a resume.
func (q *Queue[E]) Seq() uint64 { return q.seq }

// RestoreState replaces the calendar's contents with a snapshot captured
// via Entries/Seq/HighWater: entries are placed verbatim in heap-array
// order (no re-heapification — the layout is part of the deterministic
// state), the tie-break counter resumes at seq, and the high-water mark at
// highWater. The heap property and sequence-number sanity are validated so
// a corrupt snapshot fails loudly instead of desequencing the simulation.
func (q *Queue[E]) RestoreState(seq uint64, highWater int, entries []EntryState[E]) error {
	seen := make(map[uint64]bool, len(entries))
	for i, es := range entries {
		if es.Seq == 0 || es.Seq > seq {
			return fmt.Errorf("eventq: restore: entry %d seq %d outside (0, %d]", i, es.Seq, seq)
		}
		if seen[es.Seq] {
			return fmt.Errorf("eventq: restore: duplicate entry seq %d", es.Seq)
		}
		seen[es.Seq] = true
		if i > 0 {
			p := (i - 1) / 2
			pe := entries[p]
			if es.Time < pe.Time || (es.Time == pe.Time && es.Seq < pe.Seq) {
				return fmt.Errorf("eventq: restore: heap order violated at index %d", i)
			}
		}
	}
	q.heap = q.heap[:0]
	q.Reserve(len(entries))
	for _, es := range entries {
		q.heap = append(q.heap, entry[E]{time: es.Time, seq: es.Seq, event: es.Event})
	}
	q.seq = seq
	q.highWater = max(highWater, len(q.heap))
	return nil
}
