package sched

import (
	"fmt"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// RNGScheduler is implemented by schedulers that carry a private RNG
// stream (Random, BirkhoffRandom). Checkpointing captures the stream
// position so a resumed run draws the same decision sequence.
type RNGScheduler interface {
	RNGState() stats.RNGState
	RestoreRNGState(stats.RNGState) error
}

// The schedulers that carry a private RNG stream.
var (
	_ RNGScheduler = (*Random)(nil)
	_ RNGScheduler = (*BirkhoffRandom)(nil)
)

// RNGState returns the decision stream's position.
func (s *Random) RNGState() stats.RNGState { return s.rng.State() }

// RestoreRNGState rewinds the decision stream.
func (s *Random) RestoreRNGState(st stats.RNGState) error { return s.rng.RestoreState(st) }

// RNGState returns the sampling stream's position.
func (s *BirkhoffRandom) RNGState() stats.RNGState { return s.rng.State() }

// RestoreRNGState rewinds the sampling stream.
func (s *BirkhoffRandom) RestoreRNGState(st stats.RNGState) error { return s.rng.RestoreState(st) }

// ArbitrationState returns the distributed emulation's cumulative
// counters (rounds executed, control messages lost) for checkpointing.
func (s *Distributed) ArbitrationState() (rounds, grantsLost int64) {
	return s.totalRounds, s.grantsLost
}

// RestoreArbitrationState rewinds the cumulative counters.
func (s *Distributed) RestoreArbitrationState(rounds, grantsLost int64) {
	s.totalRounds = rounds
	s.grantsLost = grantsLost
}

// FallbackState is the outage-fallback wrapper's serializable state: the
// held matching (by flow ID — pointers are resolved by the restorer), the
// current reachability, and the cumulative counters. The held matching is
// pruned of detached/completed flows at snapshot time, exactly as
// Schedule itself would prune them.
type FallbackState struct {
	HeldIDs     []int64 `json:"heldIds,omitempty"`
	Outage      bool    `json:"outage,omitempty"`
	Held        int64   `json:"held,omitempty"`
	Activations int64   `json:"activations,omitempty"`
}

// StateSnapshot captures the wrapper for checkpointing.
func (s *OutageFallback) StateSnapshot() FallbackState {
	st := FallbackState{Outage: s.outage, Held: s.held, Activations: s.activations}
	for _, f := range s.last {
		if f.Attached() && f.Remaining > 0 {
			st.HeldIDs = append(st.HeldIDs, int64(f.ID))
		}
	}
	return st
}

// RestoreState rewinds the wrapper. resolve maps a serialized flow ID
// back to its restored in-table pointer; an unresolvable ID means the
// snapshot and the restored flow table disagree, which is a hard error.
// Restoring the outage flag matters for the activation counter: a
// checkpoint taken mid-outage must not count the ongoing outage again
// when the resumed run's first SetOutage(true) lands.
func (s *OutageFallback) RestoreState(st FallbackState, resolve func(flow.ID) *flow.Flow) error {
	s.last = s.last[:0]
	for _, id := range st.HeldIDs {
		f := resolve(flow.ID(id))
		if f == nil {
			return fmt.Errorf("sched: restore: held matching references unknown flow %d", id)
		}
		s.last = append(s.last, f)
	}
	s.outage = st.Outage
	s.held = st.Held
	s.activations = st.Activations
	return nil
}
