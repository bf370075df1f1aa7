// Package dtmc builds the explicit Discrete Time Markov Chain of a small
// input-queued switch and solves for its stationary distribution — the
// stochastic-stability ground truth behind the paper's Section III claim
// that "the evolution can be exactly described by an irreducible DTMC and
// the theorems for DTMC recurrence could be directly used for stability
// analysis".
//
// Modeling note (documented in DESIGN.md §2): the exact flow-level chain
// has an unbounded, combinatorial state space (every multiset of remaining
// flow sizes per VOQ). To stay enumerable, this package models each VOQ as
// an aggregated backlog and expresses the disciplines at queue granularity:
// shortest-backlog-first (the SRPT analog, which inherits its preemption
// pathology), longest-backlog-first (MaxWeight, the V = 0 BASRPT limit),
// and the backlog-aware interpolation keyed by (V/N)·min(X, s) − X, where
// min(X, s) approximates the head flow's remaining size for arrival size s.
// The chain is truncated at a per-VOQ cap; probability mass parked at the
// cap ("cap mass") is the truncated-chain signature of instability — a
// recurrent chain's stationary mass concentrates well below any generous
// cap, while a transient one piles up against it.
package dtmc

import "fmt"

// Policy maps a backlog vector (row-major VOQ order for an n-port switch)
// to the set of served VOQ indices, given the model's fixed arrival size.
// The result must be a matching over non-empty queues.
type Policy interface {
	Name() string
	// Decide returns the served VOQ indices for backlog vector x on an
	// n-port switch whose arrivals carry arriveSize packets.
	Decide(x []int, n, arriveSize int) []int
}

// greedyPolicy serves queues greedily in the order of a key function.
type greedyPolicy struct {
	name string
	key  func(backlog, arriveSize, n int) float64
}

var _ Policy = (*greedyPolicy)(nil)

func (p *greedyPolicy) Name() string { return p.name }

// Decide gathers non-empty queues, orders them by key (selection sort is
// fine at n² ≤ 16 queues), and greedily picks a crossbar matching.
func (p *greedyPolicy) Decide(x []int, n, arriveSize int) []int {
	type cand struct {
		idx int
		key float64
	}
	cands := make([]cand, 0, len(x))
	for idx, backlog := range x {
		if backlog > 0 {
			cands = append(cands, cand{idx: idx, key: p.key(backlog, arriveSize, n)})
		}
	}
	for i := 0; i < len(cands); i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].key < cands[best].key ||
				(cands[j].key == cands[best].key && cands[j].idx < cands[best].idx) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	ingressBusy := make([]bool, n)
	egressBusy := make([]bool, n)
	var out []int
	for _, c := range cands {
		i, j := c.idx/n, c.idx%n
		if ingressBusy[i] || egressBusy[j] {
			continue
		}
		ingressBusy[i] = true
		egressBusy[j] = true
		out = append(out, c.idx)
	}
	return out
}

// ShortestFirst is the queue-level SRPT analog: serve the smallest
// non-empty backlogs first.
func ShortestFirst() Policy {
	return &greedyPolicy{
		name: "shortest-first",
		key:  func(backlog, _, _ int) float64 { return float64(backlog) },
	}
}

// BacklogAware is the queue-level fast BASRPT analog with weight v:
// key = (v/n)·min(X, s) − X where s is the arrival size.
func BacklogAware(v float64) Policy {
	return &greedyPolicy{
		name: fmt.Sprintf("backlog-aware(V=%g)", v),
		key: func(backlog, arriveSize, n int) float64 {
			head := backlog
			if arriveSize < head {
				head = arriveSize
			}
			return v/float64(n)*float64(head) - float64(backlog)
		},
	}
}
