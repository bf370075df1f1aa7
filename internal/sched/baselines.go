package sched

import (
	"slices"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// FIFOMatch serves flows in arrival order: the oldest flow among the
// non-empty VOQs wins each greedy step. It is the classic "fair but slow"
// reference against which SRPT's delay advantage is usually shown.
type FIFOMatch struct {
	cands []scored
	m     matcher
}

var _ Scheduler = (*FIFOMatch)(nil)

// NewFIFOMatch returns a FIFO scheduler.
func NewFIFOMatch() *FIFOMatch { return &FIFOMatch{} }

// Name returns "fifo".
func (*FIFOMatch) Name() string { return "fifo" }

// Schedule selects flows greedily by arrival time. Unlike the size-based
// disciplines, the per-VOQ candidate is the earliest-arrived flow, which
// requires an O(q) scan of each VOQ.
func (s *FIFOMatch) Schedule(t *flow.Table) []*flow.Flow {
	s.cands = s.cands[:0]
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		var oldest *flow.Flow
		q.ForEachFlow(func(f *flow.Flow) {
			if oldest == nil || f.Arrival < oldest.Arrival ||
				(f.Arrival == oldest.Arrival && f.ID < oldest.ID) {
				oldest = f
			}
		})
		s.cands = append(s.cands, scored{key: oldest.Arrival, f: oldest})
	})
	slices.SortFunc(s.cands, cmpScored)
	return s.m.pick(s.cands, t.N())
}

// Random picks a uniformly random maximal matching each decision. It is the
// naive lower bound for both delay and stability experiments, and doubles
// as a randomized-schedule existence check for the Birkhoff argument.
type Random struct {
	rng   *stats.RNG
	cands []scored
	m     matcher
}

var _ Scheduler = (*Random)(nil)

// NewRandom builds a random scheduler with its own deterministic stream.
func NewRandom(seed uint64) *Random {
	return &Random{rng: stats.NewRNG(seed)}
}

// Name returns "random".
func (*Random) Name() string { return "random" }

// Schedule shuffles the candidate VOQs and greedily picks a maximal
// matching in that order.
func (r *Random) Schedule(t *flow.Table) []*flow.Flow {
	r.cands = r.cands[:0]
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		r.cands = append(r.cands, scored{f: q.Top()})
	})
	// Fisher–Yates over the gathered candidates.
	for i := len(r.cands) - 1; i > 0; i-- {
		j := r.rng.Intn(i + 1)
		r.cands[i], r.cands[j] = r.cands[j], r.cands[i]
	}
	return r.m.pick(r.cands, t.N())
}
