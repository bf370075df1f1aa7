package flow

import "fmt"

// Table is the VOQ state of the big switch. It tracks which VOQs are
// non-empty (for fast scheduler iteration), per-ingress-port backlogs
// (what the paper plots as "queue length at a port"), and total counts.
//
// The table is sparse: it holds a VOQ only while the VOQ is non-empty or
// dirty. A VOQ is materialized when a flow for its (src, dst) pair is
// added, and ClearDirty releases it once it is both empty and clean; its
// slot then serves the next pair that needs one. Memory is proportional
// to the peak number of VOQs held at once, not to the pairs a run has
// used or to N². A VOQ's slot and address stay valid until it is
// released. Only Add and RestoreTable create VOQs, and VOQ looks a pair
// up without creating one. Every other path reaches a VOQ through a
// flow's cached slot or the slot lists below.
//
// The table also carries a change-tracking layer for incremental
// consumers (see the package doc's "Change tracking" contract): every
// state mutation bumps Epoch and marks the touched VOQ dirty until the
// owning consumer calls ClearDirty.
type Table struct {
	n int

	chunks   [][]VOQ   // slot s lives at chunks[s>>chunkShift][s&chunkMask]
	numSlots int       // slots handed out so far: the peak number of VOQs held
	free     []int32   // released slots, reused last-in first-out
	rows     [][]int32 // per source port: slots of its held VOQs, by ascending Dst

	nonEmpty []int32 // slots of VOQs with at least one flow

	epoch      uint64  // total mutations since construction
	dirtyBasis uint64  // epoch value at the last ClearDirty
	dirty      []int32 // slots of VOQs mutated since the last ClearDirty

	ingressBacklog []float64
	egressBacklog  []float64
	ingressFlows   []int // live flow count per ingress port
	egressFlows    []int // live flow count per egress port
	numFlows       int
}

// Chunk geometry and the per-VOQ heap seed.
const (
	// A chunk holds 64 VOQs (4 KiB, one page). Released slots are reused
	// before new ones are handed out, so chunks only grow with the peak
	// number of VOQs held, and a small chunk keeps a small table small.
	chunkShift = 6
	chunkMask  = 1<<chunkShift - 1
	// voqSeedCap is the heap capacity every VOQ starts with, carved from
	// its chunk's arena.
	voqSeedCap = 2
)

// NewTable creates a table for an n-port switch. It panics on n <= 0,
// which is a configuration error.
func NewTable(n int) *Table {
	if n <= 0 {
		panic(fmt.Sprintf("flow: invalid port count %d", n))
	}
	return &Table{
		n:              n,
		rows:           make([][]int32, n),
		ingressBacklog: make([]float64, n),
		egressBacklog:  make([]float64, n),
		ingressFlows:   make([]int, n),
		egressFlows:    make([]int, n),
	}
}

// N returns the number of ports.
func (t *Table) N() int { return t.n }

// NumFlows returns the number of active flows across all VOQs.
func (t *Table) NumFlows() int { return t.numFlows }

// NumSlots returns how many slots the table has handed out: the peak
// number of VOQs it has held at once. Every held VOQ's slot is below it,
// so per-VOQ side arrays sized to NumSlots cover the whole table.
func (t *Table) NumSlots() int { return t.numSlots }

// at returns the VOQ in slot s.
func (t *Table) at(s int32) *VOQ {
	return &t.chunks[s>>chunkShift][s&chunkMask]
}

func (t *Table) checkPort(src, dst int) {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n {
		panic(fmt.Sprintf("flow: port pair (%d,%d) out of range for n=%d", src, dst, t.n))
	}
}

// find binary-searches src's row for dst. It returns the pair's VOQ, or
// nil and the row position a new slot for the pair belongs at.
func (t *Table) find(src, dst int) (*VOQ, int) {
	row := t.rows[src]
	lo, hi := 0, len(row)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t.at(row[m]).Dst < dst {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(row) {
		if q := t.at(row[lo]); q.Dst == dst {
			return q, lo
		}
	}
	return nil, lo
}

// materialize returns the VOQ for (src, dst), holding it in a released
// slot if there is one and in the next new slot otherwise. A new chunk is
// seeded from one arena, so a cold VOQ's first pushes never allocate (the
// dominant residual allocation site in steady state otherwise). The
// three-index slice caps each seed, so a VOQ that outgrows it reallocates
// privately instead of clobbering its neighbor — and the grown capacity
// is retained thereafter, across releases too, because remove only
// reslices.
func (t *Table) materialize(src, dst int) *VOQ {
	q, i := t.find(src, dst)
	if q != nil {
		return q
	}
	var s int32
	if last := len(t.free) - 1; last >= 0 {
		s = t.free[last]
		t.free = t.free[:last]
	} else {
		s = int32(t.numSlots)
		if s&chunkMask == 0 {
			chunk := make([]VOQ, chunkMask+1)
			arena := make([]*Flow, len(chunk)*voqSeedCap)
			for k := range chunk {
				chunk[k].flows = arena[k*voqSeedCap : k*voqSeedCap : (k+1)*voqSeedCap]
			}
			t.chunks = append(t.chunks, chunk)
		}
		t.numSlots++
	}
	q = t.at(s)
	q.Src, q.Dst = src, dst
	q.slot, q.nonEmptyPos, q.dirtyPos = s, -1, -1

	// Rows grow by an eighth rather than by append's doubling: under a
	// dense backlog a row can hold nearly all n destinations, and
	// doubling would leave up to half of each unused.
	row := t.rows[src]
	if len(row) == cap(row) {
		row = append(make([]int32, 0, len(row)+len(row)/8+4), row...)
	}
	row = row[:len(row)+1]
	copy(row[i+1:], row[i:])
	row[i] = s
	t.rows[src] = row
	return q
}

// VOQ returns the queue for (src, dst), or nil when the table does not
// hold one (the pair is empty and clean); a nil VOQ reads as empty. It
// never materializes a queue. A non-nil pointer stays valid until the
// queue is released: the next ClearDirty that finds it empty.
func (t *Table) VOQ(src, dst int) *VOQ {
	t.checkPort(src, dst)
	q, _ := t.find(src, dst)
	return q
}

// ForEachVOQ calls fn for every VOQ the table holds — the non-empty ones
// and the emptied ones still dirty — in (src, dst) order. fn must not add
// or remove flows.
func (t *Table) ForEachVOQ(fn func(q *VOQ)) {
	for _, row := range t.rows {
		for _, s := range row {
			fn(t.at(s))
		}
	}
}

// Add inserts a flow into its VOQ. It panics if the flow is already
// attached (a simulator bug, not a runtime condition).
func (t *Table) Add(f *Flow) {
	t.checkPort(f.Src, f.Dst)
	if f.Attached() {
		panic(fmt.Sprintf("flow: flow %d added twice", f.ID))
	}
	q := t.materialize(f.Src, f.Dst)
	f.slot = q.slot
	wasEmpty := len(q.flows) == 0
	q.push(f)
	if wasEmpty {
		q.nonEmptyPos = int32(len(t.nonEmpty))
		t.nonEmpty = append(t.nonEmpty, q.slot)
	}
	t.markDirty(q)
	t.ingressBacklog[f.Src] += f.Remaining
	t.egressBacklog[f.Dst] += f.Remaining
	t.ingressFlows[f.Src]++
	t.egressFlows[f.Dst]++
	t.numFlows++
}

// Remove detaches a flow from its VOQ (on completion). It panics if the
// flow is not attached.
func (t *Table) Remove(f *Flow) {
	if !f.Attached() {
		panic(fmt.Sprintf("flow: flow %d removed while detached", f.ID))
	}
	q := t.at(f.slot)
	q.remove(f)
	if len(q.flows) == 0 {
		t.dropNonEmpty(q)
	}
	t.markDirty(q)
	t.ingressBacklog[f.Src] -= f.Remaining
	t.egressBacklog[f.Dst] -= f.Remaining
	t.ingressFlows[f.Src]--
	t.egressFlows[f.Dst]--
	t.clampPort(f.Src, f.Dst)
	t.numFlows--
}

// Drain reduces f.Remaining by amount (clamped at zero) and updates all
// backlog accounting. It returns the amount actually drained.
func (t *Table) Drain(f *Flow, amount float64) float64 {
	if !f.Attached() {
		panic(fmt.Sprintf("flow: drain on detached flow %d", f.ID))
	}
	if amount <= 0 {
		return 0
	}
	if amount > f.Remaining {
		amount = f.Remaining
	}
	if amount == 0 {
		return 0 // nothing left to drain: no state change, stays clean
	}
	f.Remaining -= amount
	q := t.at(f.slot)
	q.adjust(f, -amount)
	t.ingressBacklog[f.Src] -= amount
	t.egressBacklog[f.Dst] -= amount
	t.clampPort(f.Src, f.Dst)
	t.markDirty(q)
	return amount
}

// clampPort repairs float drift in the port accumulators: negatives snap
// to zero, and a port with no live flows is exactly empty (repeated
// incremental adds and subtracts otherwise leave sub-byte residues that
// accumulate over hundreds of millions of events).
func (t *Table) clampPort(src, dst int) {
	if t.ingressBacklog[src] < 0 || t.ingressFlows[src] == 0 {
		t.ingressBacklog[src] = 0
	}
	if t.egressBacklog[dst] < 0 || t.egressFlows[dst] == 0 {
		t.egressBacklog[dst] = 0
	}
}

func (t *Table) dropNonEmpty(q *VOQ) {
	pos := q.nonEmptyPos
	last := len(t.nonEmpty) - 1
	moved := t.nonEmpty[last]
	t.nonEmpty[pos] = moved
	t.at(moved).nonEmptyPos = pos
	t.nonEmpty = t.nonEmpty[:last]
	q.nonEmptyPos = -1
}

// ForEachNonEmpty calls fn for every non-empty VOQ without allocating,
// in an order that is unspecified but deterministic for a given event
// history. fn must not add or remove flows. This is the scheduler hot
// path: it runs on every arrival and completion.
func (t *Table) ForEachNonEmpty(fn func(q *VOQ)) {
	for _, s := range t.nonEmpty {
		fn(t.at(s))
	}
}

// NumNonEmpty returns how many VOQs currently hold flows.
func (t *Table) NumNonEmpty() int { return len(t.nonEmpty) }

// markDirty records a mutation of q: it bumps the epoch and adds q to the
// dirty set unless already present.
func (t *Table) markDirty(q *VOQ) {
	t.epoch++
	if q.dirtyPos < 0 {
		q.dirtyPos = int32(len(t.dirty))
		t.dirty = append(t.dirty, q.slot)
	}
}

// Epoch returns the total number of state mutations (Add, Remove,
// non-zero Drain) applied to the table since construction. It increases
// monotonically and never resets.
func (t *Table) Epoch() uint64 { return t.epoch }

// DirtyBasis returns the epoch value recorded at the last ClearDirty (zero
// before the first). The dirty set holds exactly the VOQs mutated since
// that epoch, so an incremental consumer that remembers the basis it
// synchronized at can tell whether the dirty set still describes its delta
// (basis unchanged) or another consumer cleared it in between (basis
// advanced — fall back to a full rebuild).
func (t *Table) DirtyBasis() uint64 { return t.dirtyBasis }

// NumDirty returns the size of the dirty set.
func (t *Table) NumDirty() int { return len(t.dirty) }

// ForEachDirty calls fn for every VOQ mutated since the last ClearDirty,
// without allocating. fn must not add or remove flows.
func (t *Table) ForEachDirty(fn func(q *VOQ)) {
	for _, s := range t.dirty {
		fn(t.at(s))
	}
}

// ClearDirty empties the dirty set, records the current epoch as the new
// dirty basis, and releases every dirty VOQ that holds no flows. The
// consumer that owns the table's change feed calls this after applying
// the delta, so it has already seen each released VOQ empty; see the
// package doc for the single-consumer contract.
func (t *Table) ClearDirty() {
	for _, s := range t.dirty {
		q := t.at(s)
		q.dirtyPos = -1
		if len(q.flows) == 0 {
			t.release(q)
		}
	}
	t.dirty = t.dirty[:0]
	t.dirtyBasis = t.epoch
}

// release drops empty, clean VOQ q from its source row and frees its
// slot for the next pair materialize holds.
func (t *Table) release(q *VOQ) {
	_, i := t.find(q.Src, q.Dst)
	row := t.rows[q.Src]
	t.rows[q.Src] = append(row[:i], row[i+1:]...)
	t.free = append(t.free, q.slot)
}

// IngressBacklog returns the total remaining size queued at ingress port i —
// the per-server queue length plotted in the paper's Figures 2 and 5(b).
func (t *Table) IngressBacklog(i int) float64 { return t.ingressBacklog[i] }

// EgressBacklog returns the total remaining size destined for egress port j.
func (t *Table) EgressBacklog(j int) float64 { return t.egressBacklog[j] }

// TotalBacklog returns the backlog summed over all VOQs.
func (t *Table) TotalBacklog() float64 {
	var sum float64
	for _, s := range t.nonEmpty {
		sum += t.at(s).backlog
	}
	return sum
}

// MaxIngressBacklog returns the port index and value of the largest ingress
// backlog; (-1, 0) when everything is empty.
func (t *Table) MaxIngressBacklog() (port int, backlog float64) {
	port = -1
	for i, b := range t.ingressBacklog {
		if b > backlog {
			port, backlog = i, b
		}
	}
	return port, backlog
}
