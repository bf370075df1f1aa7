package sched

import (
	"fmt"
	"slices"

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
//
// Because the key is global, the emulation reads its order from fast
// BASRPT's candidate index (see Greedy) instead of ranking from scratch:
// a host's ranked list is the index's view filtered by source, and an
// egress compares two proposals by their positions in the view. It is
// therefore a dirty-feed consumer exactly like the Greedy it holds.
type Distributed struct {
	g      *Greedy // fast BASRPT: its view is the global priority order
	rounds int

	// dropGrant, when non-nil, is the control-message-loss Bernoulli
	// source (e.g. faults.Injector.DropGrant): true means the proposing
	// host's request/grant exchange is lost this round and it must retry,
	// costing one arbitration round of the budget.
	dropGrant  func() bool
	grantsLost int64

	totalRounds int64 // arbitration rounds executed across all decisions

	// Decision scratch, reused across calls like Greedy's (see the
	// Scheduler contract). Positions index g.view.
	next     []int // per host: position of its current candidate, -1 once exhausted
	chain    []int // per position: the next position with the same source, -1 at the end
	held     []int // per egress: position of the proposal it holds, -1 when none
	free     []int // hosts proposing this round
	retry    []int // hosts proposing next round
	selected []*flow.Flow
}

var _ Scheduler = (*Distributed)(nil)

// NewDistributed returns the request/grant emulation of fast BASRPT with
// weight v. rounds bounds the arbitration rounds per decision; 0 means
// run to convergence (at most N rounds are ever needed). It panics on
// negative v or rounds — configuration errors, matching the sibling
// constructors.
func NewDistributed(v float64, rounds int) *Distributed {
	g := NewFastBASRPT(v)
	if rounds < 0 {
		panic(fmt.Sprintf("sched: negative rounds %d", rounds))
	}
	return &Distributed{g: g, rounds: rounds}
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
	name := fmt.Sprintf("dist-basrpt(V=%g)", s.g.v)
	if s.rounds != 0 {
		name = fmt.Sprintf("dist-basrpt(V=%g,rounds=%d)", s.g.v, s.rounds)
	}
	if s.dropGrant != nil {
		name += "+loss"
	}
	return name
}

// Schedule brings the shared index up to date with t and runs the
// request/grant rounds over it.
func (s *Distributed) Schedule(t *flow.Table) []*flow.Flow {
	s.g.sync(t)
	view, n := s.g.view, s.g.n

	// Each host ranks its own VOQs' head flows — the only state a
	// distributed implementation has. Chaining the view back to front
	// leaves every host's list best-first, with next at its head.
	s.next = fillInts(s.next, n, -1)
	s.chain = slices.Grow(s.chain[:0], len(view))[:len(view)]
	for pos := len(view) - 1; pos >= 0; pos-- {
		src := view[pos].f.Src
		s.chain[pos] = s.next[src]
		s.next[src] = pos
	}

	// Deferred acceptance (Gale–Shapley with hosts proposing): each egress
	// holds its best tentative proposal and displaces it when a
	// better-priority one arrives; displaced hosts advance to their next
	// candidate. Because every participant ranks by the same global key,
	// the stable matching is unique and equals the centralized greedy
	// decision — so with enough rounds the emulation is exact, and the
	// round cap measures how quickly the distributed exchange converges.
	s.held = fillInts(s.held, n, -1)
	free, retry := s.free[:0], s.retry[:0]
	for i, pos := range s.next {
		if pos >= 0 {
			free = append(free, i)
		}
	}
	maxRounds := s.rounds
	if maxRounds == 0 {
		maxRounds = n * n // GS terminates well within n² proposals
	}
	for round := 0; round < maxRounds && len(free) > 0; round++ {
		s.totalRounds++
		// Two buffers: appending into free's backing array while ranging
		// over it would corrupt the iteration.
		retry = retry[:0]
		for _, i := range free {
			pos := s.next[i]
			if pos < 0 {
				continue // exhausted: drops out
			}
			if s.dropGrant != nil && s.dropGrant() {
				// Control message lost in flight: the host learns nothing
				// and retries the same candidate next round.
				s.grantsLost++
				retry = append(retry, i)
				continue
			}
			// The view is strictly cmpScored-ascending, so the earlier
			// position is the better priority.
			e := view[pos].f.Dst
			if prev := s.held[e]; prev < 0 || pos < prev {
				// Egress prefers the newcomer; displace the holder.
				if prev >= 0 {
					loser := view[prev].f.Src
					s.next[loser] = s.chain[prev]
					retry = append(retry, loser)
				}
				s.held[e] = pos
			} else {
				// Rejected: advance and retry next round.
				s.next[i] = s.chain[pos]
				retry = append(retry, i)
			}
		}
		free, retry = retry, free
	}
	s.free, s.retry = free, retry

	selected := s.selected[:0]
	for _, pos := range s.held {
		if pos >= 0 {
			selected = append(selected, view[pos].f)
		}
	}
	s.selected = selected
	return selected
}

// fillInts returns buf resized to n with every entry set to v, reusing
// its backing array when it is large enough.
func fillInts(buf []int, n, v int) []int {
	buf = slices.Grow(buf[:0], n)[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}
