package sched

import (
	"fmt"
	"math"
	"sort"

	"basrpt/internal/flow"
)

// Distributed emulates the decentralized implementation the paper says
// fast BASRPT admits (Section IV-C: "since fast BASRPT assigns global
// priorities to all flows, it can be simply implemented using distributed
// paradigms [3]"). Instead of one scheduler sorting every candidate, each
// ingress host independently ranks its own flows by the global key and
// requests its best flow's egress port; each egress grants the
// best-priority request it received; losers retry with their next-best
// flow in the following round — a pFabric-style request/grant exchange.
//
// With unlimited rounds the outcome equals the centralized greedy
// decision (both resolve priorities in the same global order; the
// equivalence is property-tested). Bounding Rounds models the latency
// budget of a real distributed arbitration, trading decision quality for
// round trips — measured by the E11 ablation.
type Distributed struct {
	v      float64
	rounds int

	// dropGrant, when non-nil, is the control-message-loss Bernoulli
	// source (e.g. faults.Injector.DropGrant): true means the proposing
	// host's request/grant exchange is lost this round and it must retry,
	// costing one arbitration round of the budget.
	dropGrant  func() bool
	grantsLost int64

	totalRounds int64 // arbitration rounds executed across all decisions
}

var _ Scheduler = (*Distributed)(nil)

// NewDistributed returns the request/grant emulation of fast BASRPT with
// weight v. rounds bounds the arbitration rounds per decision; 0 means
// run to convergence (at most N rounds are ever needed). It panics on
// negative v or rounds — configuration errors, matching the sibling
// constructors.
func NewDistributed(v float64, rounds int) *Distributed {
	checkV(v)
	if rounds < 0 {
		panic(fmt.Sprintf("sched: negative rounds %d", rounds))
	}
	return &Distributed{v: v, rounds: rounds}
}

// NewLossyDistributed is NewDistributed with a control-message-loss
// source: each proposal additionally consults dropGrant, and a lost
// message wastes the round for that host. With a bounded round budget
// lost messages directly degrade decision quality — the retry-with-
// bounded-rounds model of a real arbitration under an unreliable control
// plane.
func NewLossyDistributed(v float64, rounds int, dropGrant func() bool) *Distributed {
	s := NewDistributed(v, rounds)
	s.dropGrant = dropGrant
	return s
}

// GrantsLost returns the cumulative lost control messages across all
// Schedule calls.
func (s *Distributed) GrantsLost() int64 { return s.grantsLost }

// TotalRounds returns the cumulative arbitration rounds executed across
// all Schedule calls — the convergence-cost counter the observability
// layer reports (rounds per decision is the E11 quality/latency trade).
func (s *Distributed) TotalRounds() int64 { return s.totalRounds }

// Name returns "dist-basrpt(V=..., rounds=...)", with a "+loss" suffix
// when a control-message-loss source is attached.
func (s *Distributed) Name() string {
	name := fmt.Sprintf("dist-basrpt(V=%g)", s.v)
	if s.rounds != 0 {
		name = fmt.Sprintf("dist-basrpt(V=%g,rounds=%d)", s.v, s.rounds)
	}
	if s.dropGrant != nil {
		name += "+loss"
	}
	return name
}

// hostQueue is one ingress host's locally ranked candidates.
type hostQueue struct {
	cands []scored // sorted best-first
	next  int      // index of the next flow to request
}

// Schedule runs the request/grant rounds.
func (s *Distributed) Schedule(t *flow.Table) []*flow.Flow {
	n := t.N()
	vn := vOverN(s.v, n)

	// Each host ranks its own VOQs' head flows locally — the only state a
	// distributed implementation has.
	hosts := make([]hostQueue, n)
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		f := q.Top()
		hosts[q.Src].cands = append(hosts[q.Src].cands, scored{key: basrptKey(vn, f, q.Backlog()), f: f})
	})
	for i := range hosts {
		h := &hosts[i]
		sort.Slice(h.cands, func(a, b int) bool { return cmpScored(h.cands[a], h.cands[b]) < 0 })
	}

	// Deferred acceptance (Gale–Shapley with hosts proposing): each egress
	// holds its best tentative proposal and displaces it when a
	// better-priority one arrives; displaced hosts advance to their next
	// candidate. Because every participant ranks by the same global key,
	// the stable matching is unique and equals the centralized greedy
	// decision — so with enough rounds the emulation is exact, and the
	// round cap measures how quickly the distributed exchange converges.
	tentative := make([]scored, n) // per-egress held proposal (f == nil: none)
	heldBy := make([]int, n)       // per-egress proposing host, -1 if none
	for e := range heldBy {
		heldBy[e] = -1
	}
	free := make([]int, 0, n) // hosts currently unheld with candidates left
	for i := range hosts {
		if len(hosts[i].cands) > 0 {
			free = append(free, i)
		}
	}

	maxRounds := s.rounds
	if maxRounds == 0 {
		maxRounds = n * n // GS terminates well within n² proposals
	}
	for round := 0; round < maxRounds && len(free) > 0; round++ {
		s.totalRounds++
		// A fresh slice each round: appending into free's backing array
		// while ranging over it would corrupt the iteration.
		nextFree := make([]int, 0, len(free))
		for _, i := range free {
			h := &hosts[i]
			if h.next >= len(h.cands) {
				continue // exhausted: drops out
			}
			if s.dropGrant != nil && s.dropGrant() {
				// Control message lost in flight: the host learns nothing
				// and retries the same candidate next round.
				s.grantsLost++
				nextFree = append(nextFree, i)
				continue
			}
			prop := h.cands[h.next]
			e := prop.f.Dst
			if tentative[e].f == nil || cmpScored(prop, tentative[e]) < 0 {
				// Egress prefers the newcomer; displace the holder.
				if prev := heldBy[e]; prev >= 0 {
					hosts[prev].next++
					nextFree = append(nextFree, prev)
				}
				tentative[e] = prop
				heldBy[e] = i
			} else {
				// Rejected: advance and retry next round.
				h.next++
				nextFree = append(nextFree, i)
			}
		}
		free = nextFree
	}

	selected := make([]*flow.Flow, 0, n)
	for e := range tentative {
		if tentative[e].f != nil {
			selected = append(selected, tentative[e].f)
		}
	}
	return selected
}

// DecisionAgreement measures how often two schedulers produce decisions
// with identical objective value on the same table state — the metric the
// distributed-emulation ablation reports. It returns the agreement
// fraction over the given states.
func DecisionAgreement(v float64, a, b Scheduler, states []*flow.Table) float64 {
	if len(states) == 0 {
		return 0
	}
	agree := 0
	for _, t := range states {
		oa := Objective(v, t, a.Schedule(t))
		ob := Objective(v, t, b.Schedule(t))
		if oa == ob || math.Abs(oa-ob) <= 1e-9*math.Max(1, math.Abs(oa)) {
			agree++
		}
	}
	return float64(agree) / float64(len(states))
}
