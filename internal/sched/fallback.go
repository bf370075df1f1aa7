package sched

import "basrpt/internal/flow"

// OutageFallback wraps a scheduler with the fabric's degraded mode for
// control-plane outages: while the wrapped scheduler is unreachable
// (SetOutage(true)), Schedule returns the last decision the scheduler
// produced, pruned of flows that have since completed, instead of
// crashing or idling the fabric. A pruned subset of a crossbar matching
// is still a crossbar matching, so the degraded decisions never violate
// the constraint — property-tested in fallback_test.go.
//
// Newly arrived flows are not admitted into the held matching (the entity
// that would place them is exactly the one that is down); they wait in
// their VOQs until the scheduler recovers.
type OutageFallback struct {
	inner       Scheduler
	outage      bool
	last        []*flow.Flow // private copy of the last live decision
	out         []*flow.Flow // reusable return buffer for held decisions
	held        int64
	activations int64
}

var _ Scheduler = (*OutageFallback)(nil)

// NewOutageFallback wraps inner. It panics on a nil inner scheduler
// (programmer error, matching the sibling constructors).
func NewOutageFallback(inner Scheduler) *OutageFallback {
	if inner == nil {
		panic("sched: OutageFallback around nil scheduler")
	}
	return &OutageFallback{inner: inner}
}

// SetOutage flips the scheduler's reachability; the fabric calls it from
// the fault injector's view before every decision.
func (s *OutageFallback) SetOutage(down bool) {
	if down && !s.outage {
		s.activations++
	}
	s.outage = down
}

// HeldDecisions returns how many decisions were served from the held
// matching.
func (s *OutageFallback) HeldDecisions() int64 { return s.held }

// Activations returns how many times the fallback engaged (up→down
// transitions of the wrapped scheduler's reachability).
func (s *OutageFallback) Activations() int64 { return s.activations }

// Name returns the wrapped discipline's name with a "+hold" suffix.
func (s *OutageFallback) Name() string { return s.inner.Name() + "+hold" }

// Schedule delegates to the wrapped scheduler, or serves the pruned held
// matching during an outage. Either way the result follows the Scheduler
// ownership contract: it lives in scratch this wrapper or the wrapped
// scheduler owns and is valid only until the next Schedule call.
//
// The held matching retains flow pointers across completions, which is
// why the fabric disables flow recycling whenever fault injection (and
// therefore this wrapper) is configured: a recycled pointer could pass
// the liveness prune below while describing an unrelated flow.
func (s *OutageFallback) Schedule(t *flow.Table) []*flow.Flow {
	if s.outage {
		s.held++
		// Prune completed flows in place: s.last is a private buffer, and
		// detached flows must not linger (their ports are free again and a
		// later prune could not tell them apart from live ones).
		kept := s.last[:0]
		for _, f := range s.last {
			if f.Attached() && f.Remaining > 0 {
				kept = append(kept, f)
			}
		}
		s.last = kept
		// Return a separate reusable buffer, not s.last itself: callers may
		// compact the returned slice in place as flows complete, which must
		// not corrupt the held matching.
		s.out = append(s.out[:0], kept...)
		return s.out
	}
	d := s.inner.Schedule(t)
	s.last = append(s.last[:0], d...)
	return d
}
