// Package sched implements the flow-scheduling disciplines studied in the
// paper: SRPT (the baseline used by PDQ/pFabric/PASE), the exact
// backlog-aware BASRPT (drift-plus-penalty minimization over all maximal
// matchings), fast BASRPT (paper Algorithm 1), and reference baselines
// (MaxWeight, FIFO, threshold-backlog SRPT, random).
//
// A scheduler receives the current VOQ table and returns the set of flows
// to serve. The returned set always forms a matching under the crossbar
// constraint — at most one flow per ingress port and one per egress port —
// and for the greedy disciplines it is maximal over the non-empty VOQs.
//
// Efficiency note (documented in DESIGN.md §2): every discipline here
// ranks VOQ-mates identically — queue length is shared within a VOQ and
// every key is non-decreasing in remaining size — so only each VOQ's
// minimum-remaining flow can ever be selected. Schedulers therefore
// consider one candidate per non-empty VOQ (at most N², usually far fewer)
// instead of every active flow. Decision equivalence with the
// sort-all-flows formulation is property-tested.
//
// On top of the candidate-per-VOQ reduction, the pure-key disciplines
// (SRPT, fast BASRPT, MaxWeight, ThresholdBacklog, NoisyFastBASRPT) keep
// their candidates in a persistent incremental index (candidateIndex)
// driven by the table's dirty-VOQ change feed, so a decision re-scores
// only the VOQs the previous event touched instead of rebuilding and
// re-sorting all of them. The incremental contract: the index is valid
// while it is the sole consumer of one table's change feed (its
// remembered basis equals the table's DirtyBasis); on the first call,
// after a table swap, or after any other consumer cleared the feed — e.g.
// interleaved scheduling of two disciplines on one table — the index
// transparently rebuilds from scratch. Either path yields bit-identical
// decisions (property-tested); FIFOMatch, Random, and ExactBASRPT rank by
// impure or per-call state and stay on the from-scratch path.
//
// Schedulers run on every flow arrival and completion, so the greedy core
// reuses its scratch buffers between calls; construct disciplines with
// their New* constructors and do not share one instance across goroutines.
// The multi-seed worker pool (internal/runner) honors this by invoking the
// constructor inside each replicate's task, so every concurrent simulation
// owns a private scheduler instance.
package sched

import (
	"fmt"
	"slices"

	"basrpt/internal/flow"
)

// Scheduler selects the flows to serve given the current fabric state.
type Scheduler interface {
	// Name identifies the discipline in reports.
	Name() string
	// Schedule returns the flows to serve now. The table must be treated
	// as read-only. The result is a crossbar matching held in scratch the
	// scheduler owns: it is valid only until the next Schedule call on the
	// same instance, which may overwrite it in place. Callers that retain
	// a decision across decisions must copy it first.
	Schedule(t *flow.Table) []*flow.Flow
}

// DirtyConsumer is implemented by schedulers whose Schedule consumes the
// table's dirty-VOQ change feed (flow.Table.ClearDirty). The fabric
// simulator uses it to decide who owns the feed: when the configured
// scheduler is not a consumer, the simulator clears the feed itself after
// each decision so the dirty set cannot grow without bound.
type DirtyConsumer interface {
	ConsumesDirty() bool
}

// IsDirtyConsumer reports whether s consumes the dirty-VOQ feed; wrappers
// (e.g. OutageFallback) delegate to the scheduler they wrap.
func IsDirtyConsumer(s Scheduler) bool {
	dc, ok := s.(DirtyConsumer)
	return ok && dc.ConsumesDirty()
}

// IndexChecker is implemented by schedulers that maintain an incremental
// candidate index. CheckIndex cross-checks the index against a
// from-scratch rebuild over t and returns a descriptive error on any
// divergence; a stale or absent index returns nil (it resynchronizes on
// its next use). The fabric simulator calls it from DeepValidateEvery.
type IndexChecker interface {
	CheckIndex(t *flow.Table) error
}

// CheckIndex runs s's incremental-index self-check when it has one; nil
// otherwise.
func CheckIndex(s Scheduler, t *flow.Table) error {
	if ic, ok := s.(IndexChecker); ok {
		return ic.CheckIndex(t)
	}
	return nil
}

// IndexStats counts the incremental index's maintenance work: how many
// decisions were satisfied by a delta repair of the dirty VOQs versus a
// full rebuild. The observability layer reports them per run — a rebuild
// count above the handful expected (first decision, ablation toggles,
// table swaps) means the single-consumer contract is being violated and
// the index is silently degrading to from-scratch cost.
type IndexStats struct {
	Repairs  int64
	Rebuilds int64
}

// IndexStatser is implemented by schedulers that maintain an incremental
// candidate index; wrappers (e.g. OutageFallback) delegate to the
// scheduler they wrap.
type IndexStatser interface {
	IndexStats() IndexStats
}

// IndexStatsOf returns s's index-maintenance counters when it keeps an
// incremental index; the zero stats otherwise.
func IndexStatsOf(s Scheduler) IndexStats {
	if is, ok := s.(IndexStatser); ok {
		return is.IndexStats()
	}
	return IndexStats{}
}

// Candidate pairs a flow with the backlog of the VOQ it sits in, the two
// quantities every discipline's key is built from.
type Candidate struct {
	Flow     *flow.Flow
	QueueLen float64
}

// Key orders candidates: lower keys schedule first. Ties are broken
// deterministically (src, then dst, then flow ID) by the greedy driver.
type Key func(c Candidate) float64

// scored is a candidate with its key precomputed, so sorting never calls
// back into the discipline. voq caches the flow's VOQ slot (VOQ.Slot):
// index repair consults it to recognize superseded entries without
// dereferencing f, which may point at a flow that completed — and was
// recycled through the flow free list — since the entry was built.
type scored struct {
	key float64
	f   *flow.Flow
	voq int
}

// portMarks is a pair of epoch-stamped crossbar busy masks: a port is
// busy when its stamp equals the current epoch, so clearing both masks
// for a new decision is one counter increment instead of two O(N) zeroing
// passes, and the backing arrays persist across calls.
type portMarks struct {
	ingress []uint64
	egress  []uint64
	epoch   uint64
}

// reset sizes the masks for n ports and starts a fresh epoch. Newly
// allocated zero stamps can never read as busy: the epoch pre-increments,
// so it is always positive.
func (m *portMarks) reset(n int) {
	if cap(m.ingress) < n {
		m.ingress = make([]uint64, n)
		m.egress = make([]uint64, n)
	}
	m.ingress = m.ingress[:n]
	m.egress = m.egress[:n]
	m.epoch++
}

// taken reports whether either of f's ports is already matched.
func (m *portMarks) taken(f *flow.Flow) bool {
	return m.ingress[f.Src] == m.epoch || m.egress[f.Dst] == m.epoch
}

// take claims both of f's ports for the current decision.
func (m *portMarks) take(f *flow.Flow) {
	m.ingress[f.Src] = m.epoch
	m.egress[f.Dst] = m.epoch
}

// greedy is the shared greedy-matching core of SRPT and fast BASRPT
// (paper Algorithm 1): walk candidates in non-decreasing key order, keep
// each flow whose ingress and egress ports are both free. Its buffers are
// reused across calls, including the selected slice handed back from
// Schedule (see the Scheduler ownership contract).
type greedy struct {
	cands    []scored
	selected []*flow.Flow // decision scratch, returned to the caller
	marks    portMarks

	idx     *candidateIndex // lazily built by scheduleIndexed
	noIndex bool            // benchmarking/ablation: force the from-scratch path
}

// setIncremental toggles the incremental candidate index; disabling it
// drops the index so a later re-enable starts from a clean rebuild.
func (g *greedy) setIncremental(on bool) {
	g.noIndex = !on
	if !on {
		g.idx = nil
	}
}

// consumesDirty reports whether scheduling through g consumes the table's
// dirty-VOQ feed (see flow.Table's change-tracking contract).
func (g *greedy) consumesDirty() bool { return !g.noIndex }

// indexStats returns the index's repair/rebuild counters (zero when the
// index is disabled or not yet built).
func (g *greedy) indexStats() IndexStats {
	if g.idx == nil {
		return IndexStats{}
	}
	return IndexStats{Repairs: g.idx.repairs, Rebuilds: g.idx.rebuilds}
}

// gather collects one scored candidate per non-empty VOQ.
func (g *greedy) gather(t *flow.Table, key Key) {
	g.cands = g.cands[:0]
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		f := q.Top()
		g.cands = append(g.cands, scored{
			key: key(Candidate{Flow: f, QueueLen: q.Backlog()}),
			f:   f,
			voq: q.Slot(),
		})
	})
}

// cmpScored orders by key with deterministic (src, dst, id) tie-breaks.
func cmpScored(a, b scored) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	case a.f.Src != b.f.Src:
		return a.f.Src - b.f.Src
	case a.f.Dst != b.f.Dst:
		return a.f.Dst - b.f.Dst
	case a.f.ID < b.f.ID:
		return -1
	case a.f.ID > b.f.ID:
		return 1
	default:
		return 0
	}
}

// pick runs the greedy crossbar loop over g.cands in their current order,
// filling the reusable selected scratch.
func (g *greedy) pick(n int) []*flow.Flow {
	g.marks.reset(n)
	selected := g.selected[:0]
	free := n // ports still free on the scarcer side
	for _, c := range g.cands {
		f := c.f
		if g.marks.taken(f) {
			continue
		}
		g.marks.take(f)
		selected = append(selected, f)
		if free--; free == 0 {
			break
		}
	}
	g.selected = selected
	return selected
}

// schedule is gather + sort + pick — the from-scratch path, and the
// reference the incremental index is checked against.
func (g *greedy) schedule(t *flow.Table, key Key) []*flow.Flow {
	g.gather(t, key)
	if len(g.cands) == 0 {
		return nil
	}
	slices.SortFunc(g.cands, cmpScored)
	return g.pick(t.N())
}

// scheduleIndexed is schedule through the incremental candidate index:
// delta-repair the index's sorted view from the table's dirty feed (full
// rebuild when the feed basis does not match), then select by scanning
// the view in place. The scan serves entries in the cmpScored total
// order, so the decision is bit-identical to the from-scratch path.
func (g *greedy) scheduleIndexed(t *flow.Table, key Key) []*flow.Flow {
	if g.noIndex {
		return g.schedule(t, key)
	}
	if g.idx == nil {
		g.idx = &candidateIndex{}
	}
	g.idx.sync(t, key)
	if len(g.idx.view) == 0 {
		g.selected = g.selected[:0]
		return nil
	}
	g.marks.reset(t.N())
	g.selected = g.idx.pick(&g.marks, g.selected[:0])
	return g.selected
}

// checkIndex cross-checks the incremental index against a from-scratch
// rebuild; nil when the index is disabled, not yet built, or stale (a
// stale index resynchronizes on its next use and so is not an error).
func (g *greedy) checkIndex(t *flow.Table, key Key) error {
	if g.noIndex || g.idx == nil {
		return nil
	}
	return g.idx.check(t, key)
}

// Validator re-checks decisions without allocating: it owns a pair of
// epoch-stamped busy masks that persist across calls, so validation on
// every decision (fabricsim's ValidateDecisions mode) no longer skews
// allocation profiles. The zero value is ready to use; like schedulers,
// an instance must not be shared across goroutines.
type Validator struct {
	marks portMarks
}

// ValidateDecision checks the crossbar constraint on a decision and that
// every port is in range. Simulators call this in debug paths and tests
// use it as the core invariant.
func (v *Validator) ValidateDecision(n int, decision []*flow.Flow) error {
	v.marks.reset(n)
	for _, f := range decision {
		if f == nil {
			return fmt.Errorf("sched: nil flow in decision")
		}
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return fmt.Errorf("sched: flow %d ports (%d,%d) out of range", f.ID, f.Src, f.Dst)
		}
		if v.marks.ingress[f.Src] == v.marks.epoch {
			return fmt.Errorf("sched: ingress %d used twice", f.Src)
		}
		if v.marks.egress[f.Dst] == v.marks.epoch {
			return fmt.Errorf("sched: egress %d used twice", f.Dst)
		}
		v.marks.take(f)
	}
	return nil
}

// IsMaximalDecision reports whether no additional non-empty VOQ could be
// served on top of decision.
func (v *Validator) IsMaximalDecision(t *flow.Table, decision []*flow.Flow) bool {
	v.marks.reset(t.N())
	for _, f := range decision {
		v.marks.take(f)
	}
	maximal := true
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		if v.marks.ingress[q.Src] != v.marks.epoch && v.marks.egress[q.Dst] != v.marks.epoch {
			maximal = false
		}
	})
	return maximal
}

// ValidateDecision is the one-shot form of Validator.ValidateDecision for
// call sites that do not validate in a loop.
func ValidateDecision(n int, decision []*flow.Flow) error {
	var v Validator
	return v.ValidateDecision(n, decision)
}

// IsMaximalDecision is the one-shot form of Validator.IsMaximalDecision.
func IsMaximalDecision(t *flow.Table, decision []*flow.Flow) bool {
	var v Validator
	return v.IsMaximalDecision(t, decision)
}
