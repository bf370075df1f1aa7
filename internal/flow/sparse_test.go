package flow

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// denseRef is a plain N×N model of the table's bookkeeping, indexed by
// pair src*n+dst the way the table was before it went sparse. It repeats
// the table's float operations in the same order, so every accumulator
// must agree bit for bit, and it keeps the non-empty and dirty lists with
// the same append and swap-remove rules, so their orders must agree too.
type denseRef struct {
	n                 int
	backlog           []float64 // per pair
	count             []int     // live flows per pair
	nonEmpty, dirty   []int     // pair indices
	nonEmptyPos       []int     // pair -> position in nonEmpty, -1 if absent
	isDirty           []bool
	epoch, basis      uint64
	ingress, egress   []float64
	inFlows, outFlows []int
	remaining         map[ID]float64
	numFlows          int
}

func newDenseRef(n int) *denseRef {
	r := &denseRef{
		n: n, backlog: make([]float64, n*n), count: make([]int, n*n),
		nonEmptyPos: make([]int, n*n), isDirty: make([]bool, n*n),
		ingress: make([]float64, n), egress: make([]float64, n),
		inFlows: make([]int, n), outFlows: make([]int, n),
		remaining: map[ID]float64{},
	}
	for i := range r.nonEmptyPos {
		r.nonEmptyPos[i] = -1
	}
	return r
}

func (r *denseRef) markDirty(p int) {
	r.epoch++
	if !r.isDirty[p] {
		r.isDirty[p] = true
		r.dirty = append(r.dirty, p)
	}
}

func (r *denseRef) clampPort(src, dst int) {
	if r.ingress[src] < 0 || r.inFlows[src] == 0 {
		r.ingress[src] = 0
	}
	if r.egress[dst] < 0 || r.outFlows[dst] == 0 {
		r.egress[dst] = 0
	}
}

func (r *denseRef) add(f *Flow) {
	p := f.Src*r.n + f.Dst
	if r.count[p] == 0 {
		r.nonEmptyPos[p] = len(r.nonEmpty)
		r.nonEmpty = append(r.nonEmpty, p)
	}
	r.count[p]++
	r.backlog[p] += f.Remaining
	r.remaining[f.ID] = f.Remaining
	r.markDirty(p)
	r.ingress[f.Src] += f.Remaining
	r.egress[f.Dst] += f.Remaining
	r.inFlows[f.Src]++
	r.outFlows[f.Dst]++
	r.numFlows++
}

func (r *denseRef) drain(f *Flow, amount float64) float64 {
	rem := r.remaining[f.ID]
	if amount <= 0 {
		return 0
	}
	amount = math.Min(amount, rem)
	if amount == 0 {
		return 0
	}
	r.remaining[f.ID] = rem - amount
	p := f.Src*r.n + f.Dst
	if r.backlog[p] += -amount; r.backlog[p] < 0 {
		r.backlog[p] = 0
	}
	r.ingress[f.Src] -= amount
	r.egress[f.Dst] -= amount
	r.clampPort(f.Src, f.Dst)
	r.markDirty(p)
	return amount
}

func (r *denseRef) remove(f *Flow) {
	p := f.Src*r.n + f.Dst
	rem := r.remaining[f.ID]
	delete(r.remaining, f.ID)
	r.count[p]--
	if r.backlog[p] -= rem; r.backlog[p] < 0 || r.count[p] == 0 {
		r.backlog[p] = 0
	}
	if r.count[p] == 0 {
		pos, last := r.nonEmptyPos[p], len(r.nonEmpty)-1
		moved := r.nonEmpty[last]
		r.nonEmpty[pos] = moved
		r.nonEmptyPos[moved] = pos
		r.nonEmpty = r.nonEmpty[:last]
		r.nonEmptyPos[p] = -1
	}
	r.markDirty(p)
	r.ingress[f.Src] -= rem
	r.egress[f.Dst] -= rem
	r.inFlows[f.Src]--
	r.outFlows[f.Dst]--
	r.clampPort(f.Src, f.Dst)
	r.numFlows--
}

func (r *denseRef) clearDirty() {
	for _, p := range r.dirty {
		r.isDirty[p] = false
	}
	r.dirty = r.dirty[:0]
	r.basis = r.epoch
}

func (r *denseRef) totalBacklog() float64 {
	var sum float64
	for _, p := range r.nonEmpty {
		sum += r.backlog[p]
	}
	return sum
}

// pairsOf maps VOQs to their pair indices.
func pairsOf(n int, qs []*VOQ) []int {
	out := make([]int, 0, len(qs))
	for _, q := range qs {
		out = append(out, q.Src*n+q.Dst)
	}
	return out
}

// diffRef reports the first way tab disagrees with the reference, or "".
// The table must hold a VOQ for exactly the reference's non-empty and
// dirty pairs, visit them in (src, dst) order, and have handed out peak
// slots: the most VOQs it has held at once.
func diffRef(tab *Table, r *denseRef, peak int) string {
	n := r.n
	held := heldIn(r)
	var visited, nonEmpty []int
	tab.ForEachVOQ(func(q *VOQ) { visited = append(visited, q.Src*n+q.Dst) })
	tab.ForEachNonEmpty(func(q *VOQ) { nonEmpty = append(nonEmpty, q.Src*n+q.Dst) })
	switch {
	case !slices.Equal(nonEmpty, r.nonEmpty):
		return "non-empty order differs"
	case !slices.Equal(pairsOf(n, tab.DirtyVOQs(nil)), r.dirty):
		return "dirty order differs"
	case tab.Epoch() != r.epoch || tab.DirtyBasis() != r.basis:
		return "epoch or dirty basis differs"
	case tab.NumFlows() != r.numFlows:
		return "flow count differs"
	case math.Float64bits(tab.TotalBacklog()) != math.Float64bits(r.totalBacklog()):
		return "total backlog differs"
	case tab.NumSlots() != peak:
		return "slot count differs from the peak number of VOQs held"
	case !slices.Equal(visited, held):
		return "ForEachVOQ does not visit exactly the non-empty and dirty pairs in pair order"
	}
	for p := 0; p < n; p++ {
		if math.Float64bits(tab.IngressBacklog(p)) != math.Float64bits(r.ingress[p]) ||
			math.Float64bits(tab.EgressBacklog(p)) != math.Float64bits(r.egress[p]) {
			return "port backlog differs"
		}
	}
	for p := 0; p < n*n; p++ {
		q := tab.VOQ(p/n, p%n)
		if _, ok := slices.BinarySearch(held, p); (q != nil) != ok {
			return "table holds a VOQ for an empty, clean pair, or none for a non-empty or dirty one"
		}
		if q.Len() != r.count[p] || math.Float64bits(q.Backlog()) != math.Float64bits(r.backlog[p]) {
			return "VOQ contents differ"
		}
	}
	return ""
}

// driveAgainstDense drives a random Add/Drain/Remove/ClearDirty sequence
// drawn from seed through the sparse table and the dense reference, and
// reports the first step at which they disagree, or "". At random points
// it round-trips the table through StateSnapshot and RestoreTable, checks
// that the snapshot's Dirty list holds pair indices, and carries on
// driving the restored table.
func driveAgainstDense(seed uint64) string {
	rng := splitmix(seed)
	n := 2 + rng.intn(7)
	tab, ref := NewTable(n), newDenseRef(n)
	peak := 0
	var live []*Flow
	for step := 0; step < 400; step++ {
		switch op := rng.intn(20); {
		case op < 8 || len(live) == 0: // add, on a narrow pair range so VOQs share flows
			src, dst := rng.intn(n), rng.intn(1+rng.intn(n))
			f := NewFlow(ID(step+1), src, dst, ClassOther, 1+rng.float64()*1000, float64(step))
			tab.Add(f)
			ref.add(f)
			live = append(live, f)
		case op < 15: // drain, sometimes past the end or by nothing
			f := live[rng.intn(len(live))]
			amount := rng.float64() * f.Remaining * 1.3
			if rng.intn(6) == 0 {
				amount = 0
			}
			if got, want := tab.Drain(f, amount), ref.drain(f, amount); got != want {
				return fmt.Sprintf("step %d: Drain returned %g, reference %g", step, got, want)
			}
		case op < 18: // remove
			i := rng.intn(len(live))
			tab.Remove(live[i])
			ref.remove(live[i])
			live = slices.Delete(live, i, i+1)
		default:
			tab.ClearDirty()
			ref.clearDirty()
		}
		// One step holds at most one more VOQ, so the peak after each
		// step is the table's peak.
		peak = max(peak, len(heldIn(ref)))
		if d := diffRef(tab, ref, peak); d != "" {
			return fmt.Sprintf("step %d: %s", step, d)
		}
		if rng.intn(25) != 0 {
			continue
		}
		st := tab.StateSnapshot()
		if !slices.Equal(st.Dirty, ref.dirty) {
			return fmt.Sprintf("step %d: snapshot Dirty %v, want pair indices %v", step, st.Dirty, ref.dirty)
		}
		restored, byID, err := RestoreTable(st)
		if err != nil {
			return fmt.Sprintf("step %d: restore: %v", step, err)
		}
		// The restored table holds only the pairs the snapshot names, so
		// its peak starts at their count.
		peak = len(heldIn(ref))
		if d := diffRef(restored, ref, peak); d != "" {
			return fmt.Sprintf("step %d: restored table: %s", step, d)
		}
		tab = restored
		for i, f := range live {
			live[i] = byID[f.ID]
		}
	}
	return ""
}

// TestSparseTableMatchesDenseReference requires the sparse table to agree
// with the dense reference after every step of random event sequences,
// snapshot round trips included.
func TestSparseTableMatchesDenseReference(t *testing.T) {
	f := func(seed uint64) bool {
		if d := driveAgainstDense(seed); d != "" {
			t.Logf("seed %d %s", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTableAgainstDense runs the event sequences of
// TestSparseTableMatchesDenseReference with the fuzzer choosing the seed.
func FuzzTableAgainstDense(f *testing.F) {
	for _, seed := range []uint64{1, 7, 0x6ef2f6894ec7af7a} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if d := driveAgainstDense(seed); d != "" {
			t.Fatalf("seed %d %s", seed, d)
		}
	})
}

// heldIn is the set of pairs the table must hold in ref's state — the
// non-empty and the dirty ones — as ascending pair indices.
func heldIn(ref *denseRef) []int {
	held := append(slices.Clone(ref.nonEmpty), ref.dirty...)
	slices.Sort(held)
	return slices.Compact(held)
}

// TestSparseTableMemory guards against any N² array creeping back into
// the table: a 4128-port table that has seen 10k random flows must hold
// under 2 MB, where a dense one needs over 1 GB.
func TestSparseTableMemory(t *testing.T) {
	const n, adds = 4128, 10_000
	rng := splitmix(7)
	flows := make([]*Flow, adds)
	for i := range flows {
		flows[i] = NewFlow(ID(i+1), rng.intn(n), rng.intn(n), ClassOther, 1+rng.float64()*1e6, 0)
	}
	before := liveHeap()
	tab := NewTable(n)
	for _, f := range flows {
		tab.Add(f)
	}
	held := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(tab)
	runtime.KeepAlive(flows)
	t.Logf("NewTable(%d) plus %d adds: %d slots, %d bytes held", n, adds, tab.NumSlots(), held)
	if held > 2<<20 {
		t.Fatalf("NewTable(%d) plus %d adds holds %d bytes, want under 2 MB", n, adds, held)
	}
	if tab.NumSlots() > adds {
		t.Fatalf("%d slots for %d adds", tab.NumSlots(), adds)
	}
}

// TestSparseTableChurnRecyclesSlots runs a 4128-port table through 100k
// add-and-remove cycles over random pairs, clearing the dirty set after
// each, with about 1,000 flows live at a time. Released slots must be
// reused: the table may hand out no more slots than the peak number of
// non-empty plus dirty VOQs, and must hold under 1 MB. A table that kept
// every pair it had used would hold ~100k VOQs, over 8 MB.
func TestSparseTableChurnRecyclesSlots(t *testing.T) {
	const n, cycles, window = 4128, 100_000, 1_000
	rng := splitmix(11)
	before := liveHeap()
	tab := NewTable(n)
	live := make([]*Flow, 0, window+1)
	peak := 0
	for i := 0; i < cycles; i++ {
		f := NewFlow(ID(i+1), rng.intn(n), rng.intn(n), ClassOther, 1+rng.float64()*1e6, 0)
		tab.Add(f)
		live = append(live, f)
		if len(live) > window {
			k := rng.intn(len(live))
			tab.Remove(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		peak = max(peak, tab.NumNonEmpty()+tab.NumDirty())
		tab.ClearDirty()
	}
	held := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(tab)
	runtime.KeepAlive(live)
	t.Logf("%d ports, %d cycles: %d slots, peak %d non-empty plus dirty, %d bytes held",
		n, cycles, tab.NumSlots(), peak, held)
	if tab.NumSlots() > peak {
		t.Fatalf("%d slots, but at most %d VOQs were non-empty or dirty at once", tab.NumSlots(), peak)
	}
	if held > 1<<20 {
		t.Fatalf("table holds %d bytes after %d cycles, want under 1 MB", held, cycles)
	}
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
