package sched

import (
	"fmt"
	"slices"

	"basrpt/internal/flow"
)

// This file maintains Greedy's candidate index; see the Greedy doc for
// the structure and its validity contract.

// current reports whether the index still describes t exactly: same
// table, same basis (no foreign consumer), and the geometry matches.
func (g *Greedy) current(t *flow.Table) bool {
	return g.table == t && g.n == t.N() && g.basis == t.DirtyBasis()
}

// synced reports whether the index equals a from-scratch build of t right
// now: current and no unconsumed mutations. Used by the deep-validation
// cross-check, which must not flag an index that is merely awaiting its
// next delta (e.g. while an outage fallback serves held decisions).
func (g *Greedy) synced(t *flow.Table) bool {
	return g.current(t) && t.NumDirty() == 0
}

// sync brings the index up to date with t and consumes the dirty feed:
// a delta repair over the dirty VOQs when the index is current, a full
// rebuild otherwise. Either way every emptied VOQ's entry is gone before
// ClearDirty releases its slot, so no entry names a slot another pair may
// take next.
func (g *Greedy) sync(t *flow.Table) {
	// Fresh zeroed stamps can never equal a repair generation: repair
	// pre-increments gen, so the current generation is always positive and
	// greater than every stamp written before. The same argument lets
	// stamps left over from another table stay in place.
	g.stale = growPerSlot(g.stale, t.NumSlots())
	if g.current(t) {
		g.repairs++
		g.repair(t)
	} else {
		g.rebuilds++
		g.rebuild(t)
	}
	t.ClearDirty()
	g.basis = t.DirtyBasis()
}

// growPerSlot extends a per-slot side array to at least n entries; new
// entries are zero. Tables hand out slots one at a time over a run, so it
// keeps an eighth of headroom instead of reallocating per slot, and less
// than append's doubling so the array stays close to the table's own
// footprint.
func growPerSlot[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		s = append(make([]T, 0, n+n/8), s...)
	}
	return s[:n]
}

// score is non-empty VOQ q's candidate: its head flow under the key.
func (g *Greedy) score(q *flow.VOQ) scored {
	f := q.Top()
	return scored{key: g.key(g.vn, f, q.Backlog()), f: f, voq: q.Slot()}
}

// rebuild reconstructs the sorted view from every non-empty VOQ of t. V/N
// is fixed per table, so this is where it is derived.
func (g *Greedy) rebuild(t *flow.Table) {
	g.table = t
	g.n = t.N()
	g.vn = vOverN(g.v, g.n)
	view := g.view[:0]
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		view = append(view, g.score(q))
	})
	slices.SortFunc(view, cmpScored)
	g.view = view
}

// repair splices the dirty VOQs' re-scored candidates into the sorted
// view: stamp every dirty VOQ stale, sort the k replacement entries, then
// merge them with the surviving entries in one pass. Both inputs are
// cmpScored-sorted and disjoint (a surviving entry's VOQ is not dirty),
// so the output is the exact sorted order a full rebuild would produce.
//
// The staleness test reads e.voq, never e.f: a stale entry's flow may
// have completed and been recycled through the flow free list since the
// last sync, in which case the pointer now describes an unrelated flow in
// a different VOQ. Surviving (non-stale) entries sit in VOQs untouched
// since the last sync, so their flows are necessarily still live and safe
// for cmpScored to dereference.
func (g *Greedy) repair(t *flow.Table) {
	g.gen++
	gen := g.gen
	changes := g.changes[:0]
	t.ForEachDirty(func(q *flow.VOQ) {
		g.stale[q.Slot()] = gen
		if q.Len() > 0 {
			changes = append(changes, g.score(q))
		}
	})
	slices.SortFunc(changes, cmpScored)
	merged := g.merged[:0]
	j := 0
	for _, e := range g.view {
		if g.stale[e.voq] == gen {
			continue // superseded (or emptied) by this repair
		}
		for j < len(changes) && cmpScored(changes[j], e) < 0 {
			merged = append(merged, changes[j])
			j++
		}
		merged = append(merged, e)
	}
	merged = append(merged, changes[j:]...)
	g.changes = changes[:0]
	g.merged = g.view[:0]
	g.view = merged
}

// check verifies the index against a from-scratch view of t: entry count,
// per-VOQ candidate identity, exact key values, and strict sorted order.
// It reports nil when the index is not synced with t — a stale index is
// not wrong, it will resynchronize when consulted.
func (g *Greedy) check(t *flow.Table) error {
	if !g.synced(t) {
		return nil
	}
	if got, want := len(g.view), t.NumNonEmpty(); got != want {
		return fmt.Errorf("sched: index holds %d candidates, table has %d non-empty VOQs", got, want)
	}
	// Dedup by VOQ with persistent generation-stamped slices instead of a
	// per-call map, so the cross-check costs no allocations even when it
	// runs on every decision (DeepValidateEvery: 1).
	g.checkSeen = growPerSlot(g.checkSeen, t.NumSlots())
	g.checkCand = growPerSlot(g.checkCand, t.NumSlots())
	g.checkGen++
	for i, c := range g.view {
		if i > 0 && cmpScored(g.view[i-1], c) >= 0 {
			return fmt.Errorf("sched: index sorted order violated at entry %d", i)
		}
		g.checkSeen[c.voq] = g.checkGen
		g.checkCand[c.voq] = c
	}
	var err error
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		if err != nil {
			return
		}
		voq := q.Slot()
		if g.checkSeen[voq] != g.checkGen {
			err = fmt.Errorf("sched: non-empty VOQ (%d,%d) has no index entry", q.Src, q.Dst)
			return
		}
		c := g.checkCand[voq]
		if c.f != q.Top() {
			err = fmt.Errorf("sched: index candidate for VOQ (%d,%d) is flow %d, from-scratch picks %d",
				q.Src, q.Dst, c.f.ID, q.Top().ID)
			return
		}
		if want := g.score(q).key; c.key != want {
			err = fmt.Errorf("sched: index key for VOQ (%d,%d) is %g, from-scratch computes %g",
				q.Src, q.Dst, c.key, want)
		}
	})
	return err
}
