package sched

import (
	"slices"
	"strings"
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// fromScratch is the reference the candidate index is checked against:
// on every call it gathers one candidate per non-empty VOQ under the
// discipline's key, sorts them by cmpScored and runs the crossbar loop.
// It never touches the table's dirty feed, so it can share a table with
// the index under test without stealing its deltas.
type fromScratch struct {
	g     *Greedy // supplies the discipline's name, key and V
	cands []scored
	m     matcher
}

func newFromScratch(g *Greedy) *fromScratch { return &fromScratch{g: g} }

func (s *fromScratch) Name() string { return s.g.Name() }

func (s *fromScratch) Schedule(t *flow.Table) []*flow.Flow {
	vn := vOverN(s.g.v, t.N())
	s.cands = s.cands[:0]
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		f := q.Top()
		s.cands = append(s.cands, scored{key: s.g.key(vn, f, q.Backlog()), f: f})
	})
	slices.SortFunc(s.cands, cmpScored)
	return s.m.pick(s.cands, t.N())
}

// routedDiscipline is one key-only discipline under test.
type routedDiscipline struct {
	name string
	mk   func() *Greedy
}

func routedDisciplines() []routedDiscipline {
	return []routedDiscipline{
		{"srpt", NewSRPT},
		{"fast-basrpt", func() *Greedy { return NewFastBASRPT(2500) }},
		{"maxweight", NewMaxWeight},
		{"threshold", func() *Greedy { return NewThresholdBacklog(800) }},
		{"noisy-basrpt", func() *Greedy { return NewNoisyFastBASRPT(2500, 0.25) }},
	}
}

// tableDriver mutates a table the way the fabric simulator does — serve
// the previous decision, complete drained flows, admit arrivals, drop the
// occasional flow — so the equivalence tests exercise realistic dirty
// patterns (few VOQs touched per step) rather than uniform churn.
type tableDriver struct {
	r    *stats.RNG
	tab  *flow.Table
	live []*flow.Flow
	next flow.ID
}

func newTableDriver(seed uint64, n int) *tableDriver {
	d := &tableDriver{r: stats.NewRNG(seed), tab: flow.NewTable(n), next: 1}
	for i := 0; i < 3+d.r.Intn(3*n); i++ {
		d.arrive()
	}
	return d
}

func (d *tableDriver) arrive() {
	n := d.tab.N()
	// Per-flow fractional size offset keeps sizes pairwise distinct, so the
	// disciplines' orderings have no key ties across VOQs.
	size := 1 + float64(d.r.Intn(100000)) + float64(d.next)*1e-3
	f := flow.NewFlow(d.next, d.r.Intn(n), d.r.Intn(n), flow.ClassOther, size, float64(d.next))
	d.next++
	d.tab.Add(f)
	d.live = append(d.live, f)
}

func (d *tableDriver) drop(f *flow.Flow) {
	d.tab.Remove(f)
	for i, g := range d.live {
		if g == f {
			d.live[i] = d.live[len(d.live)-1]
			d.live = d.live[:len(d.live)-1]
			return
		}
	}
}

// step applies one simulated event batch: drain the served flows (some to
// completion), admit a few arrivals, and occasionally drop a live flow.
func (d *tableDriver) step(served []*flow.Flow) {
	for _, f := range served {
		if !f.Attached() {
			continue
		}
		if d.r.Float64() < 0.3 {
			d.tab.Drain(f, f.Remaining) // completion
			d.drop(f)
		} else {
			d.tab.Drain(f, d.r.Float64()*f.Remaining)
		}
	}
	for k := d.r.Intn(3); k > 0; k-- {
		d.arrive()
	}
	if len(d.live) > 0 && d.r.Float64() < 0.1 {
		d.drop(d.live[d.r.Intn(len(d.live))]) // injected fault: flow vanishes
	}
}

// identicalDecisions demands element-wise pointer equality — the decisions
// must match flow for flow in the same order, not merely as sets.
func identicalDecisions(a, b []*flow.Flow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIncrementalDecisionEquivalence: for every routed discipline, the
// incremental index and the from-scratch reference produce bit-identical
// decisions across long random event sequences on a shared table. The
// reference does not consume the dirty feed, so running both against one
// table is exactly the single-owning-consumer contract.
func TestIncrementalDecisionEquivalence(t *testing.T) {
	for _, p := range routedDisciplines() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				inc := p.mk()
				base := newFromScratch(p.mk())
				if IsDirtyConsumer(base) {
					t.Fatal("from-scratch reference claims to consume the dirty feed")
				}
				if !IsDirtyConsumer(inc) {
					t.Fatal("incremental instance does not consume the dirty feed")
				}
				d := newTableDriver(seed, 2+int(seed%7))
				var served []*flow.Flow
				for step := 0; step < 200; step++ {
					d.step(served)
					got := inc.Schedule(d.tab)
					want := base.Schedule(d.tab)
					if !identicalDecisions(got, want) {
						t.Fatalf("seed %d step %d: incremental %v, from-scratch %v",
							seed, step, decisionIDs(got), decisionIDs(want))
					}
					if err := CheckIndex(inc, d.tab); err != nil {
						t.Fatalf("seed %d step %d: index check: %v", seed, step, err)
					}
					served = got
				}
			}
		})
	}
}

// TestIncrementalRebuildOnTableSwap: one scheduler instance alternating
// between two independent tables must transparently rebuild on each swap
// and stay equivalent to from-scratch on both.
func TestIncrementalRebuildOnTableSwap(t *testing.T) {
	inc := NewFastBASRPT(2500)
	base := newFromScratch(NewFastBASRPT(2500))
	a := newTableDriver(11, 4)
	b := newTableDriver(12, 6) // different geometry forces pos re-allocation too
	var servedA, servedB []*flow.Flow
	for step := 0; step < 100; step++ {
		a.step(servedA)
		b.step(servedB)
		// servedA outlives inc's next Schedule call (on table B), so it must
		// be cloned out of the scheduler's scratch per the ownership contract.
		servedA = append([]*flow.Flow(nil), inc.Schedule(a.tab)...)
		if !identicalDecisions(servedA, base.Schedule(a.tab)) {
			t.Fatalf("step %d: diverged on table A after swap", step)
		}
		servedB = append([]*flow.Flow(nil), inc.Schedule(b.tab)...)
		if !identicalDecisions(servedB, base.Schedule(b.tab)) {
			t.Fatalf("step %d: diverged on table B after swap", step)
		}
	}
}

// TestIncrementalRebuildAfterForeignConsumer: when another consumer takes
// the dirty feed between calls — a direct ClearDirty or a second
// incremental discipline on the same table — the index must detect the
// basis mismatch and rebuild instead of applying an incomplete delta.
func TestIncrementalRebuildAfterForeignConsumer(t *testing.T) {
	inc := NewSRPT()
	rival := NewMaxWeight() // second consumer of the same feed
	base := newFromScratch(NewSRPT())
	d := newTableDriver(21, 5)
	var served []*flow.Flow
	for step := 0; step < 100; step++ {
		d.step(served)
		switch step % 3 {
		case 0:
			d.tab.ClearDirty() // feed stolen outright
		case 1:
			rival.Schedule(d.tab) // feed consumed by a rival index
		}
		served = inc.Schedule(d.tab)
		if !identicalDecisions(served, base.Schedule(d.tab)) {
			t.Fatalf("step %d: diverged after foreign feed consumption", step)
		}
	}
}

// TestIncrementalUnderOutageFallback: wrapping the incremental scheduler
// in OutageFallback lets dirty mutations accumulate unconsumed while the
// held matching is served; when the outage lifts, the delta repair over
// the accumulated backlog must land on the same decisions as from-scratch.
func TestIncrementalUnderOutageFallback(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		inc := NewOutageFallback(NewFastBASRPT(2500))
		base := NewOutageFallback(newFromScratch(NewFastBASRPT(2500)))
		if !IsDirtyConsumer(inc) {
			t.Fatal("fallback around incremental scheduler should consume the feed")
		}
		if IsDirtyConsumer(base) {
			t.Fatal("fallback around from-scratch scheduler should not consume the feed")
		}
		r := stats.NewRNG(seed * 977)
		d := newTableDriver(seed, 5)
		var served []*flow.Flow
		outage := false
		for step := 0; step < 200; step++ {
			if r.Float64() < 0.15 {
				outage = !outage
				inc.SetOutage(outage)
				base.SetOutage(outage)
			}
			d.step(served)
			got := inc.Schedule(d.tab)
			want := base.Schedule(d.tab)
			if !identicalDecisions(got, want) {
				t.Fatalf("seed %d step %d (outage=%v): incremental %v, from-scratch %v",
					seed, step, outage, decisionIDs(got), decisionIDs(want))
			}
			if err := CheckIndex(inc, d.tab); err != nil {
				t.Fatalf("seed %d step %d: index check: %v", seed, step, err)
			}
			served = got
		}
		if inc.HeldDecisions() != base.HeldDecisions() {
			t.Fatalf("held-decision counts diverged: %d vs %d",
				inc.HeldDecisions(), base.HeldDecisions())
		}
	}
}

// TestCheckIndexDetectsCorruption: the deep-validation cross-check accepts
// a freshly synchronized index, stays silent on a stale one (it will
// resynchronize), and reports every class of deliberate corruption.
func TestCheckIndexDetectsCorruption(t *testing.T) {
	mk := func() (*Greedy, *tableDriver) {
		s := NewSRPT()
		d := newTableDriver(31, 4)
		var served []*flow.Flow
		for step := 0; step < 20; step++ {
			d.step(served)
			served = s.Schedule(d.tab)
		}
		if len(s.view) == 0 {
			t.Fatal("setup produced an empty index")
		}
		return s, d
	}

	s, d := mk()
	if err := CheckIndex(s, d.tab); err != nil {
		t.Fatalf("fresh index flagged: %v", err)
	}

	// Stale (unconsumed mutations): not an error.
	d.arrive()
	if err := CheckIndex(s, d.tab); err != nil {
		t.Fatalf("stale index flagged: %v", err)
	}
	s.Schedule(d.tab)

	// Key corruption. Decrementing the minimum entry's key keeps the view
	// sorted, so the message must come from the key cross-check, not the
	// order check.
	s.view[0].key -= 1
	if err := CheckIndex(s, d.tab); err == nil {
		t.Fatal("corrupted key not detected")
	}
	if err := CheckIndex(s, d.tab); !strings.Contains(err.Error(), "from-scratch computes") {
		t.Fatalf("key corruption reported as %v", err)
	}

	// Order corruption: swapping two entries preserves the candidate set
	// and every key, so only the sorted-order check can catch it.
	s, d = mk()
	v := s.view
	v[0], v[len(v)-1] = v[len(v)-1], v[0]
	err := CheckIndex(s, d.tab)
	if err == nil {
		t.Fatal("corrupted sort order not detected")
	}
	if !strings.Contains(err.Error(), "sorted order") {
		t.Fatalf("order corruption reported as %v", err)
	}

	// Dropped entry.
	s, d = mk()
	s.view = s.view[1:]
	if err := CheckIndex(s, d.tab); err == nil {
		t.Fatal("missing candidate not detected")
	}
}

// TestCheckIndexNilPaths: schedulers without an index answer nil through
// the package helper, and so does an index that was never built.
func TestCheckIndexNilPaths(t *testing.T) {
	tab := flow.NewTable(3)
	tab.Add(flow.NewFlow(1, 0, 1, flow.ClassOther, 10, 0))
	for _, s := range []Scheduler{NewFIFOMatch(), NewRandom(3), NewExactBASRPT(10)} {
		if err := CheckIndex(s, tab); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if IsDirtyConsumer(s) {
			t.Fatalf("%s should not consume the dirty feed", s.Name())
		}
	}
	// Never scheduled: no index yet.
	if err := CheckIndex(NewSRPT(), tab); err != nil {
		t.Fatalf("unbuilt index: %v", err)
	}
}

// TestIncrementalEmptiesAndRefills: the index must survive the table
// draining to empty and filling back up (heap length through zero).
func TestIncrementalEmptiesAndRefills(t *testing.T) {
	inc := NewFastBASRPT(2500)
	base := newFromScratch(NewFastBASRPT(2500))
	tab := flow.NewTable(3)
	for round := 0; round < 5; round++ {
		flows := []*flow.Flow{
			flow.NewFlow(flow.ID(round*10+1), 0, 1, flow.ClassOther, 40, 0),
			flow.NewFlow(flow.ID(round*10+2), 1, 2, flow.ClassOther, 60, 1),
			flow.NewFlow(flow.ID(round*10+3), 2, 0, flow.ClassOther, 80, 2),
		}
		for _, f := range flows {
			tab.Add(f)
		}
		if !identicalDecisions(inc.Schedule(tab), base.Schedule(tab)) {
			t.Fatalf("round %d: diverged after refill", round)
		}
		for _, f := range flows {
			tab.Drain(f, f.Remaining)
			tab.Remove(f)
		}
		if got := inc.Schedule(tab); len(got) != 0 {
			t.Fatalf("round %d: decision on empty table: %v", round, decisionIDs(got))
		}
		if want := base.Schedule(tab); len(want) != 0 {
			t.Fatalf("round %d: baseline decision on empty table", round)
		}
	}
}

// TestIncrementalDeepTableEquivalence drives the regime the fabric-scale
// benchmarks run in — far more candidates than ports, so the view is deep
// and most entries never get selected — and checks the merge repair stays
// bit-identical to from-scratch while completions, arrivals, and drops
// splice entries in and out at arbitrary positions of the sorted view.
func TestIncrementalDeepTableEquivalence(t *testing.T) {
	for seed := uint64(100); seed < 104; seed++ {
		inc := NewFastBASRPT(2500)
		base := newFromScratch(NewFastBASRPT(2500))
		d := newTableDriver(seed, 32)
		for i := 0; i < 600; i++ {
			d.arrive()
		}
		var served []*flow.Flow
		for step := 0; step < 120; step++ {
			d.step(served)
			got := inc.Schedule(d.tab)
			want := base.Schedule(d.tab)
			if !identicalDecisions(got, want) {
				t.Fatalf("seed %d step %d: incremental %v, from-scratch %v",
					seed, step, decisionIDs(got), decisionIDs(want))
			}
			if err := CheckIndex(inc, d.tab); err != nil {
				t.Fatalf("seed %d step %d: index check: %v", seed, step, err)
			}
			served = got
		}
	}
}
