// Package flow models the unit of work that the fabric schedules: flows
// with a source port, a destination port, and a remaining size, organized
// into the N×N Virtual Output Queues of the big-switch abstraction
// (paper Section III-A).
//
// The central structure is Table, which maintains per-VOQ min-heaps keyed
// by remaining size. Every scheduling discipline in this repository selects
// at most one flow per VOQ per decision, and for all of them the per-VOQ
// best candidate is the minimum-remaining flow (queue length is shared by
// every flow in a VOQ), so the table exposes exactly that candidate in
// O(1) and keeps it correct in O(log q) per update.
//
// # Change tracking
//
// Table additionally feeds incremental consumers (the candidate index in
// internal/sched) through a change-tracking layer:
//
//   - Epoch() is a monotone counter bumped by every mutation (Add, Remove,
//     and any Drain that moves bytes).
//   - The dirty set holds every VOQ mutated since the last ClearDirty,
//     readable via ForEachDirty/NumDirty. Dirty VOQs may be empty (their
//     last flow was removed) — that emptiness is itself the change a
//     consumer must observe. A single fabric event dirties O(decision
//     size) VOQs, so the set is the per-event delta a consumer needs —
//     VOQs outside it are bit-for-bit unchanged.
//   - ClearDirty() empties the set, stamps DirtyBasis() with the current
//     epoch, and releases every dirty VOQ that holds no flows.
//
// The table holds a VOQ only while it is non-empty or dirty. A released
// VOQ's slot (VOQ.Slot) and memory serve the next pair that needs a VOQ,
// so a consumer that keeps per-slot state must retire an emptied VOQ's
// entry when it sees the VOQ in the dirty set, before it calls
// ClearDirty; after that the slot may name a different pair.
//
// The feed supports exactly one owning consumer at a time: whoever calls
// ClearDirty owns the delta. A consumer remembers the (table, DirtyBasis)
// pair it last synchronized at; when the pair still matches, the dirty set
// is precisely the consumer's delta, otherwise (first call, table swap, a
// different consumer cleared in between) it must resynchronize from
// scratch. Non-consuming readers may mutate the table freely — they only
// grow the dirty set, never invalidate it.
package flow

import "fmt"

// ID uniquely identifies a flow within a simulation run.
type ID int64

// Class labels a flow for per-class metrics, mirroring the paper's split
// between fixed-size queries/responses and rack-local background transfers.
type Class int

// Flow classes.
const (
	ClassQuery Class = iota + 1
	ClassBackground
	ClassOther
)

// String returns the class name used in reports.
func (c Class) String() string {
	switch c {
	case ClassQuery:
		return "query"
	case ClassBackground:
		return "background"
	case ClassOther:
		return "other"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Flow is one transfer. Size and Remaining are in bytes for the
// continuous-time simulator and in packets for the slotted switch model;
// the schedulers are unit-agnostic.
type Flow struct {
	ID        ID
	Src       int
	Dst       int
	Class     Class
	Size      float64
	Remaining float64
	Arrival   float64

	slot      int32 // owning VOQ's table slot; meaningful only while attached
	heapIndex int32 // position in the owning VOQ's heap; -1 when detached
}

// NewFlow constructs a flow with Remaining initialized to Size.
func NewFlow(id ID, src, dst int, class Class, size, arrival float64) *Flow {
	return &Flow{
		ID:        id,
		Src:       src,
		Dst:       dst,
		Class:     class,
		Size:      size,
		Remaining: size,
		Arrival:   arrival,
		heapIndex: -1,
	}
}

// Attached reports whether the flow currently sits in a VOQ.
func (f *Flow) Attached() bool { return f.heapIndex >= 0 }

// VOQ is one virtual output queue q_ij: the flows that arrived at ingress
// port Src and are destined for egress port Dst, ordered by remaining size.
//
// The read methods (Len, Backlog, Top, Flows, ForEachFlow) accept a nil
// receiver and read it as an empty queue: Table.VOQ returns nil for a
// pair whose queue the table does not hold.
type VOQ struct {
	Src, Dst int

	flows   []*Flow
	backlog float64

	slot        int32 // dense table slot, fixed while the table holds the VOQ
	nonEmptyPos int32 // position in the table's non-empty list; -1 if absent
	dirtyPos    int32 // position in the table's dirty list; -1 if clean
}

// Slot returns the VOQ's dense table slot: a small integer in
// [0, Table.NumSlots()) that stays fixed while the table holds the VOQ,
// so per-VOQ side arrays can be indexed by it. Once ClearDirty releases
// the emptied VOQ, another pair may take the slot.
func (q *VOQ) Slot() int { return int(q.slot) }

// Len returns the number of flows queued.
func (q *VOQ) Len() int {
	if q == nil {
		return 0
	}
	return len(q.flows)
}

// Backlog returns the total remaining size over all queued flows — the
// X_ij(t) of the paper's queue-evolution model.
func (q *VOQ) Backlog() float64 {
	if q == nil {
		return 0
	}
	return q.backlog
}

// Top returns the flow with the smallest remaining size, or nil when the
// queue is empty. Ties break on lower flow ID so decisions are
// deterministic.
func (q *VOQ) Top() *Flow {
	if q.Len() == 0 {
		return nil
	}
	return q.flows[0]
}

// Flows returns the queued flows in heap order (only the first element has
// a guaranteed position). The slice is a copy.
func (q *VOQ) Flows() []*Flow {
	out := make([]*Flow, q.Len())
	if q != nil {
		copy(out, q.flows)
	}
	return out
}

// ForEachFlow calls fn for every queued flow in heap order (only the
// first element has a guaranteed position) without copying the queue.
// fn must not mutate the VOQ.
func (q *VOQ) ForEachFlow(fn func(f *Flow)) {
	if q == nil {
		return
	}
	for _, f := range q.flows {
		fn(f)
	}
}

func (q *VOQ) less(i, j int) bool {
	a, b := q.flows[i], q.flows[j]
	if a.Remaining != b.Remaining {
		return a.Remaining < b.Remaining
	}
	return a.ID < b.ID
}

func (q *VOQ) swap(i, j int) {
	q.flows[i], q.flows[j] = q.flows[j], q.flows[i]
	q.flows[i].heapIndex = int32(i)
	q.flows[j].heapIndex = int32(j)
}

func (q *VOQ) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *VOQ) down(i int) {
	n := len(q.flows)
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

func (q *VOQ) push(f *Flow) {
	f.heapIndex = int32(len(q.flows))
	q.flows = append(q.flows, f)
	q.up(int(f.heapIndex))
	q.backlog += f.Remaining
}

func (q *VOQ) remove(f *Flow) {
	i := int(f.heapIndex)
	last := len(q.flows) - 1
	if i != last {
		q.swap(i, last)
	}
	q.flows = q.flows[:last]
	f.heapIndex = -1
	if i < last {
		q.down(i)
		q.up(i)
	}
	q.backlog -= f.Remaining
	if q.backlog < 0 || len(q.flows) == 0 {
		// Guard against float drift: never negative, and exactly zero
		// when the queue has no flows.
		q.backlog = 0
	}
}

// adjust accounts a change of delta in f.Remaining (already applied to the
// flow) and restores heap order.
func (q *VOQ) adjust(f *Flow, delta float64) {
	q.backlog += delta
	if q.backlog < 0 {
		q.backlog = 0
	}
	q.down(int(f.heapIndex))
	q.up(int(f.heapIndex))
}
