package sched

import (
	"fmt"
	"math"

	"basrpt/internal/flow"
	"basrpt/internal/matching"
)

// ExactBASRPT is the exact drift-plus-penalty minimizer of Section IV-A:
// it enumerates every maximal matching of the non-empty VOQs and selects
// the one minimizing V·ȳ(t) − Σij Xij(t)Rij(t), where ȳ is the mean
// remaining size of the selected flows and the second term is the total
// backlog of the selected queues.
//
// Within a VOQ the minimum-remaining flow is always chosen: swapping any
// selected flow for a longer VOQ-mate changes neither ΣX nor the matching
// but increases ȳ, so the reduction is exact.
//
// The enumeration is factorial in the number of ports — the very
// impracticality that motivates fast BASRPT — so it accepts at most
// DefaultExactMaxPorts; CheckPorts reports a larger switch up front, and
// Schedule panics on one as the last guard.
type ExactBASRPT struct {
	v float64
}

var _ Scheduler = (*ExactBASRPT)(nil)

// DefaultExactMaxPorts is the largest switch ExactBASRPT accepts.
const DefaultExactMaxPorts = 8

// CheckPorts reports whether s can schedule an n-port switch. Only
// ExactBASRPT has a limit, DefaultExactMaxPorts; every entry point that
// pairs a scheduler with a fabric calls this before any work.
func CheckPorts(s Scheduler, n int) error {
	if _, ok := s.(*ExactBASRPT); ok && n > DefaultExactMaxPorts {
		return fmt.Errorf("sched: exact BASRPT on %d ports exceeds limit %d", n, DefaultExactMaxPorts)
	}
	return nil
}

// NewExactBASRPT returns the exhaustive BASRPT scheduler. It panics on
// negative V.
func NewExactBASRPT(v float64) *ExactBASRPT {
	checkV(v)
	return &ExactBASRPT{v: v}
}

// Name returns "exact-basrpt(V=...)".
func (s *ExactBASRPT) Name() string { return fmt.Sprintf("exact-basrpt(V=%g)", s.v) }

// Schedule exhaustively minimizes the BASRPT objective.
func (s *ExactBASRPT) Schedule(t *flow.Table) []*flow.Flow {
	if err := CheckPorts(s, t.N()); err != nil {
		panic(err.Error())
	}
	if t.NumNonEmpty() == 0 {
		return nil
	}
	// Map (src,dst) edge -> VOQ for decision reconstruction.
	n := t.N()
	byEdge := make(map[matching.Edge]*flow.VOQ, t.NumNonEmpty())
	edges := make([]matching.Edge, 0, t.NumNonEmpty())
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		e := matching.Edge{Left: q.Src, Right: q.Dst}
		byEdge[e] = q
		edges = append(edges, e)
	})

	best := math.Inf(1)
	var bestEdges []matching.Edge
	matching.EnumerateMaximal(n, edges, func(m []matching.Edge) bool {
		if len(m) == 0 {
			return true
		}
		var sumRemaining, sumQueue float64
		for _, e := range m {
			q := byEdge[e]
			sumRemaining += q.Top().Remaining
			sumQueue += q.Backlog()
		}
		obj := s.v*sumRemaining/float64(len(m)) - sumQueue
		if obj < best-1e-12 || (math.Abs(obj-best) <= 1e-12 && lessEdges(m, bestEdges)) {
			best = obj
			bestEdges = append(bestEdges[:0], m...)
		}
		return true
	})

	decision := make([]*flow.Flow, 0, len(bestEdges))
	for _, e := range bestEdges {
		decision = append(decision, byEdge[e].Top())
	}
	return decision
}

// lessEdges gives a deterministic tie-break between equal-objective
// matchings: lexicographic on the (sorted) edge lists.
func lessEdges(a, b []matching.Edge) bool {
	if len(a) != len(b) {
		return len(a) > len(b) // prefer serving more queues on ties
	}
	for i := range a {
		if a[i].Left != b[i].Left {
			return a[i].Left < b[i].Left
		}
		if a[i].Right != b[i].Right {
			return a[i].Right < b[i].Right
		}
	}
	return false
}

// Objective computes the BASRPT objective V·ȳ − ΣX over a decision, using
// the decision flows' VOQ backlogs from t. An empty decision scores +Inf
// (never preferred). Exposed for tests and the exact-vs-fast ablation.
func Objective(v float64, t *flow.Table, decision []*flow.Flow) float64 {
	if len(decision) == 0 {
		return math.Inf(1)
	}
	var sumRemaining, sumQueue float64
	for _, f := range decision {
		sumRemaining += f.Remaining
		sumQueue += t.VOQ(f.Src, f.Dst).Backlog()
	}
	return v*sumRemaining/float64(len(decision)) - sumQueue
}
