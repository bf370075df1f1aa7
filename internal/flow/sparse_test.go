package flow

import (
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
func diffRef(tab *Table, r *denseRef, used map[int]bool) string {
	n := r.n
	switch {
	case !slices.Equal(pairsOf(n, tab.NonEmpty(nil)), r.nonEmpty):
		return "non-empty order differs"
	case !slices.Equal(pairsOf(n, tab.DirtyVOQs(nil)), r.dirty):
		return "dirty order differs"
	case tab.Epoch() != r.epoch || tab.DirtyBasis() != r.basis:
		return "epoch or dirty basis differs"
	case tab.NumFlows() != r.numFlows:
		return "flow count differs"
	case math.Float64bits(tab.TotalBacklog()) != math.Float64bits(r.totalBacklog()):
		return "total backlog differs"
	case tab.NumSlots() != len(used):
		return "slot count differs from the number of pairs used"
	}
	for p := 0; p < n; p++ {
		if math.Float64bits(tab.IngressBacklog(p)) != math.Float64bits(r.ingress[p]) ||
			math.Float64bits(tab.EgressBacklog(p)) != math.Float64bits(r.egress[p]) {
			return "port backlog differs"
		}
	}
	for p := 0; p < n*n; p++ {
		q := tab.VOQ(p/n, p%n)
		if (q != nil) != used[p] {
			return "VOQ materialized for an unused pair, or missing for a used one"
		}
		if q.Len() != r.count[p] || math.Float64bits(q.Backlog()) != math.Float64bits(r.backlog[p]) {
			return "VOQ contents differ"
		}
	}
	return ""
}

// TestSparseTableMatchesDenseReference drives random Add/Drain/Remove/
// ClearDirty sequences through the sparse table and the dense reference
// and requires them to agree after every step. At random points it
// round-trips the table through StateSnapshot and RestoreTable, checks
// that the snapshot's Dirty list holds pair indices, and carries on
// driving the restored table.
func TestSparseTableMatchesDenseReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := splitmix(seed)
		n := 2 + rng.intn(7)
		tab, ref := NewTable(n), newDenseRef(n)
		used := map[int]bool{}
		var live []*Flow
		for step := 0; step < 400; step++ {
			switch op := rng.intn(20); {
			case op < 8 || len(live) == 0: // add, on a narrow pair range so VOQs share flows
				src, dst := rng.intn(n), rng.intn(1+rng.intn(n))
				f := NewFlow(ID(step+1), src, dst, ClassOther, 1+rng.float64()*1000, float64(step))
				tab.Add(f)
				ref.add(f)
				used[src*n+dst] = true
				live = append(live, f)
			case op < 15: // drain, sometimes past the end or by nothing
				f := live[rng.intn(len(live))]
				amount := rng.float64() * f.Remaining * 1.3
				if rng.intn(6) == 0 {
					amount = 0
				}
				if got, want := tab.Drain(f, amount), ref.drain(f, amount); got != want {
					t.Logf("step %d: Drain returned %g, reference %g", step, got, want)
					return false
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
			if d := diffRef(tab, ref, used); d != "" {
				t.Logf("seed %d step %d: %s", seed, step, d)
				return false
			}
			if rng.intn(25) != 0 {
				continue
			}
			st := tab.StateSnapshot()
			if !slices.Equal(st.Dirty, ref.dirty) {
				t.Logf("step %d: snapshot Dirty %v, want pair indices %v", step, st.Dirty, ref.dirty)
				return false
			}
			restored, byID, err := RestoreTable(st)
			if err != nil {
				t.Logf("step %d: restore: %v", step, err)
				return false
			}
			// The restored table materializes only the pairs the snapshot
			// names, so it may hold fewer slots than the original.
			if d := diffRef(restored, ref, usedIn(n, ref)); d != "" {
				t.Logf("step %d: restored table: %s", step, d)
				return false
			}
			tab, used = restored, usedIn(n, ref)
			for i, f := range live {
				live[i] = byID[f.ID]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// usedIn is the set of pairs a table restored from ref's state holds: the
// non-empty and the dirty ones.
func usedIn(n int, ref *denseRef) map[int]bool {
	used := map[int]bool{}
	for _, p := range ref.nonEmpty {
		used[p] = true
	}
	for _, p := range ref.dirty {
		used[p] = true
	}
	return used
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

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
