package sched

import (
	"fmt"
	"slices"

	"basrpt/internal/flow"
)

// candidateIndex is the persistent incremental core behind the greedy
// disciplines: every non-empty VOQ's scored candidate (key over
// Top().Remaining and Backlog()), held as a slice permanently sorted in
// cmpScored order and kept in sync with the table's dirty-VOQ change feed
// (see the internal/flow package doc). Between decisions only the dirty
// VOQs change, so a repair re-scores just those k entries, sorts them
// (k·log k), and splices them into the surviving order with one linear
// merge (M). Selection is then a comparison-free scan of the already-
// sorted view, instead of the from-scratch path's gather-and-sort over
// all M non-empty VOQs (M·log M) on every event.
//
// Validity contract: the index is the delta consumer of exactly one
// table. It is current when it points at the table being scheduled and
// its basis equals the table's DirtyBasis (nobody else consumed the feed
// since the index last synchronized). Anything else — first call, table
// swap, a foreign ClearDirty — triggers a transparent full rebuild.
// Because keys are pure functions of (Remaining, Backlog) and cmpScored
// is a strict total order over distinct VOQs, the maintained order equals
// the from-scratch sorted order bit for bit; decision equivalence is
// property-tested.
type candidateIndex struct {
	table *flow.Table
	basis uint64 // table.DirtyBasis() at the last synchronization
	n     int

	view []scored // all current candidates, strictly cmpScored-ascending

	// Repair bookkeeping. stale stamps each VOQ (by table slot) with the
	// generation of the repair that last touched it; during the merge,
	// view entries whose VOQ carries the current generation have been
	// superseded (re-scored or emptied) and are skipped. Stamping instead
	// of clearing keeps repair cost proportional to the dirty set.
	stale []uint64
	gen   uint64

	changes []scored // repair scratch: the re-scored dirty candidates
	merged  []scored // repair double buffer, swapped with view

	// Check bookkeeping (deep-validation cross-check only): the same
	// generation-stamp idiom as stale, deduplicating view entries by VOQ
	// without building a per-call map.
	checkSeen []uint64
	checkCand []scored
	checkGen  uint64

	repairs  int64 // sync calls satisfied by a delta repair
	rebuilds int64 // sync calls that needed a full rebuild
}

// current reports whether the index still describes t exactly: same
// table, same basis (no foreign consumer), and the geometry matches.
func (ix *candidateIndex) current(t *flow.Table) bool {
	return ix.table == t && ix.n == t.N() && ix.basis == t.DirtyBasis()
}

// synced reports whether the index equals a from-scratch build of t right
// now: current and no unconsumed mutations. Used by the deep-validation
// cross-check, which must not flag an index that is merely awaiting its
// next delta (e.g. while an outage fallback serves held decisions).
func (ix *candidateIndex) synced(t *flow.Table) bool {
	return ix.current(t) && t.NumDirty() == 0
}

// sync brings the index up to date with t and consumes the dirty feed:
// a delta repair over the dirty VOQs when the index is current, a full
// rebuild otherwise.
func (ix *candidateIndex) sync(t *flow.Table, key Key) {
	// Fresh zeroed stamps can never equal a repair generation: repair
	// pre-increments gen, so the current generation is always positive and
	// greater than every stamp written before. The same argument lets
	// stamps left over from another table stay in place.
	ix.stale = growPerSlot(ix.stale, t.NumSlots())
	if ix.current(t) {
		ix.repairs++
		ix.repair(t, key)
	} else {
		ix.rebuilds++
		ix.rebuild(t, key)
	}
	t.ClearDirty()
	ix.basis = t.DirtyBasis()
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

// rebuild reconstructs the sorted view from every non-empty VOQ of t.
func (ix *candidateIndex) rebuild(t *flow.Table, key Key) {
	ix.table = t
	ix.n = t.N()
	view := ix.view[:0]
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		f := q.Top()
		view = append(view, scored{
			key: key(Candidate{Flow: f, QueueLen: q.Backlog()}),
			f:   f,
			voq: q.Slot(),
		})
	})
	slices.SortFunc(view, cmpScored)
	ix.view = view
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
func (ix *candidateIndex) repair(t *flow.Table, key Key) {
	ix.gen++
	gen := ix.gen
	changes := ix.changes[:0]
	t.ForEachDirty(func(q *flow.VOQ) {
		voq := q.Slot()
		ix.stale[voq] = gen
		if q.Len() > 0 {
			f := q.Top()
			changes = append(changes, scored{
				key: key(Candidate{Flow: f, QueueLen: q.Backlog()}),
				f:   f,
				voq: voq,
			})
		}
	})
	slices.SortFunc(changes, cmpScored)
	merged := ix.merged[:0]
	j := 0
	for _, e := range ix.view {
		if ix.stale[e.voq] == gen {
			continue // superseded (or emptied) by this repair
		}
		for j < len(changes) && cmpScored(changes[j], e) < 0 {
			merged = append(merged, changes[j])
			j++
		}
		merged = append(merged, e)
	}
	merged = append(merged, changes[j:]...)
	ix.changes = changes[:0]
	ix.merged = ix.view[:0]
	ix.view = merged
}

// pick runs the greedy crossbar loop straight over the maintained sorted
// view — no regather, no comparisons. marks is the caller's epoch-stamped
// busy scratch, already reset for this decision; selected is the caller's
// decision scratch, appended to and returned. The scan serves entries in
// the cmpScored total order, so the decision is bit-identical to the
// from-scratch path; it stops early once the matching saturates the
// scarcer side of the crossbar.
func (ix *candidateIndex) pick(marks *portMarks, selected []*flow.Flow) []*flow.Flow {
	free := ix.n // ports still free on the scarcer side
	for _, c := range ix.view {
		f := c.f
		if marks.taken(f) {
			continue
		}
		marks.take(f)
		selected = append(selected, f)
		if free--; free == 0 {
			break
		}
	}
	return selected
}

// check verifies the index against a from-scratch view of t: entry count,
// per-VOQ candidate identity, exact key values, and strict sorted order.
// It reports nil when the index is not synced with t — a stale index is
// not wrong, it will resynchronize when consulted.
func (ix *candidateIndex) check(t *flow.Table, key Key) error {
	if !ix.synced(t) {
		return nil
	}
	if got, want := len(ix.view), t.NumNonEmpty(); got != want {
		return fmt.Errorf("sched: index holds %d candidates, table has %d non-empty VOQs", got, want)
	}
	// Dedup by VOQ with persistent generation-stamped slices instead of a
	// per-call map, so the cross-check costs no allocations even when it
	// runs on every decision (DeepValidateEvery: 1).
	ix.checkSeen = growPerSlot(ix.checkSeen, t.NumSlots())
	ix.checkCand = growPerSlot(ix.checkCand, t.NumSlots())
	ix.checkGen++
	for i, c := range ix.view {
		if i > 0 && cmpScored(ix.view[i-1], c) >= 0 {
			return fmt.Errorf("sched: index sorted order violated at entry %d", i)
		}
		ix.checkSeen[c.voq] = ix.checkGen
		ix.checkCand[c.voq] = c
	}
	var err error
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		if err != nil {
			return
		}
		voq := q.Slot()
		if ix.checkSeen[voq] != ix.checkGen {
			err = fmt.Errorf("sched: non-empty VOQ (%d,%d) has no index entry", q.Src, q.Dst)
			return
		}
		c := ix.checkCand[voq]
		if c.f != q.Top() {
			err = fmt.Errorf("sched: index candidate for VOQ (%d,%d) is flow %d, from-scratch picks %d",
				q.Src, q.Dst, c.f.ID, q.Top().ID)
			return
		}
		if want := key(Candidate{Flow: q.Top(), QueueLen: q.Backlog()}); c.key != want {
			err = fmt.Errorf("sched: index key for VOQ (%d,%d) is %g, from-scratch computes %g",
				q.Src, q.Dst, c.key, want)
		}
	})
	return err
}
