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
// The key-only disciplines — SRPT, fast BASRPT, noisy fast BASRPT,
// MaxWeight and the threshold strategy — are one type, Greedy: Algorithm
// 1's greedy crossbar loop over a per-flow priority key. Greedy keeps its
// candidates in a persistent incremental index driven by the table's
// dirty-VOQ change feed, so a decision re-scores only the VOQs the
// previous event touched instead of rebuilding and re-sorting all of
// them. The incremental contract: the index is valid while it is the sole
// consumer of one table's change feed (its remembered basis equals the
// table's DirtyBasis); on the first call, after a table swap, or after any
// other consumer cleared the feed — e.g. interleaved scheduling of two
// disciplines on one table — the index transparently rebuilds from
// scratch. Either path yields bit-identical decisions (property-tested
// against a from-scratch gather-and-sort reference). Distributed, the
// request/grant emulation of fast BASRPT, arbitrates over a fast-BASRPT
// Greedy's index instead of ranking on its own. FIFOMatch, Random, and
// ExactBASRPT rank by impure or per-call state and stay from-scratch.
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

// indexed returns the Greedy behind s, looking through the outage
// fallback and through Distributed to the fast-BASRPT index it reads; nil
// when s keeps no candidate index.
func indexed(s Scheduler) *Greedy {
	if fb, ok := s.(*OutageFallback); ok {
		s = fb.inner
	}
	switch s := s.(type) {
	case *Greedy:
		return s
	case *Distributed:
		return s.g
	}
	return nil
}

// IsDirtyConsumer reports whether s consumes the table's dirty-VOQ change
// feed (flow.Table.ClearDirty), which only the Greedy index does —
// directly or, for Distributed, through the index it reads. The
// fabric simulator uses it to decide who owns the feed: when the
// configured scheduler is not a consumer, the simulator clears the feed
// itself after each decision so the dirty set cannot grow without bound.
// During an outage the fallback consults nobody, so mutations accumulate
// until the index is reachable again and repairs itself from them.
func IsDirtyConsumer(s Scheduler) bool { return indexed(s) != nil }

// CheckIndex cross-checks s's candidate index against a from-scratch
// rebuild over t and returns a descriptive error on any divergence. It
// returns nil when s keeps no index or its index is stale (a stale index
// resynchronizes on its next use). The fabric simulator calls it from
// DeepValidateEvery.
func CheckIndex(s Scheduler, t *flow.Table) error {
	if g := indexed(s); g != nil {
		return g.check(t)
	}
	return nil
}

// IndexStats counts the incremental index's maintenance work: how many
// decisions were satisfied by a delta repair of the dirty VOQs versus a
// full rebuild. The observability layer reports them per run — a rebuild
// count above the handful expected (first decision, table swaps) means the
// single-consumer contract is being violated and the index is silently
// degrading to from-scratch cost.
type IndexStats struct {
	Repairs  int64
	Rebuilds int64
}

// IndexStatsOf returns s's index-maintenance counters when it keeps a
// candidate index; the zero stats otherwise.
func IndexStatsOf(s Scheduler) IndexStats {
	if g := indexed(s); g != nil {
		return IndexStats{Repairs: g.repairs, Rebuilds: g.rebuilds}
	}
	return IndexStats{}
}

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

// matcher is the greedy crossbar loop every candidate-ordering discipline
// shares (paper Algorithm 1's selection step): walk candidates in order,
// keep each flow whose ingress and egress ports are both free. Its buffers
// are reused across calls, including the selected slice handed back from
// Schedule (see the Scheduler ownership contract).
type matcher struct {
	selected []*flow.Flow // decision scratch, returned to the caller
	marks    portMarks
}

// pick runs the crossbar loop over cands in their given order on an
// n-port table, filling the reusable selected scratch. It stops early
// once the matching saturates the scarcer side of the crossbar.
func (m *matcher) pick(cands []scored, n int) []*flow.Flow {
	if len(cands) == 0 {
		return nil
	}
	m.marks.reset(n)
	selected := m.selected[:0]
	free := n // ports still free on the scarcer side
	for _, c := range cands {
		f := c.f
		if m.marks.taken(f) {
			continue
		}
		m.marks.take(f)
		selected = append(selected, f)
		if free--; free == 0 {
			break
		}
	}
	m.selected = selected
	return selected
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
