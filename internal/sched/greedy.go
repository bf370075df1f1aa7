package sched

import (
	"fmt"
	"math"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// key scores a non-empty VOQ's head flow f, whose VOQ holds backlog:
// lower keys schedule first, ties broken by cmpScored. vn is Algorithm 1's
// V/N for the table being scheduled; keys that do not trade size against
// backlog ignore it. A key must be a pure function of its arguments — the
// candidate index caches its values between decisions.
type key func(vn float64, f *flow.Flow, backlog float64) float64

// vOverN is Algorithm 1's weight on remaining size: the tradeoff weight V
// normalized by the table's port count n, so that summing the key over a
// full n-flow decision yields V·ȳ − ΣXijRij, the BASRPT objective.
// Greedy.rebuild derives it here, and Distributed reads it through the
// fast-BASRPT Greedy it holds.
func vOverN(v float64, n int) float64 { return v / float64(n) }

// basrptKey is Algorithm 1's key, (V/N)·remaining − backlog.
func basrptKey(vn float64, f *flow.Flow, backlog float64) float64 {
	return vn*f.Remaining - backlog
}

// Greedy is paper Algorithm 1's greedy crossbar loop over a per-flow
// priority key: candidates — each non-empty VOQ's minimum-remaining flow —
// are considered in non-decreasing key order, and each one whose ingress
// and egress ports are both free is served. The key-only disciplines are
// all Greedy and differ only in name and key: SRPT, fast BASRPT, its
// estimated-size variant, MaxWeight and the threshold strategy (see their
// constructors).
//
// The candidates live in a persistent incremental index: every non-empty
// VOQ's scored candidate, held as a slice permanently sorted in cmpScored
// order and kept in sync with the table's dirty-VOQ change feed (see the
// internal/flow package doc). Between decisions only the dirty VOQs
// change, so a repair re-scores just those k entries, sorts them
// (k·log k), and splices them into the surviving order with one linear
// merge (M). Selection is then a comparison-free scan of the already-
// sorted view, instead of a gather-and-sort over all M non-empty VOQs
// (M·log M) on every event.
//
// Validity contract: the index is the delta consumer of exactly one
// table. It is current when it points at the table being scheduled and
// its basis equals the table's DirtyBasis (nobody else consumed the feed
// since the index last synchronized). Anything else — first call, table
// swap, a foreign ClearDirty — triggers a transparent full rebuild.
// Because keys are pure functions of (V/N, flow, backlog) and cmpScored
// is a strict total order over distinct VOQs, the maintained order equals
// the from-scratch sorted order bit for bit; decision equivalence is
// property-tested.
type Greedy struct {
	name string
	key  key
	v    float64 // Algorithm 1's tradeoff weight V; 0 for keys that ignore it
	vn   float64 // vOverN(v, n), re-derived on every rebuild

	table *flow.Table
	basis uint64 // table.DirtyBasis() at the last synchronization
	n     int

	view []scored // all current candidates, strictly cmpScored-ascending

	// Repair bookkeeping. stale stamps each VOQ (by table slot) with the
	// generation of the repair that last touched it; during the merge,
	// view entries whose VOQ carries the current generation have been
	// superseded (re-scored or emptied) and are skipped. Stamping instead
	// of clearing keeps repair cost proportional to the dirty set.
	stale []uint64
	gen   uint64

	changes []scored // repair scratch: the re-scored dirty candidates
	merged  []scored // repair double buffer, swapped with view

	// Check bookkeeping (deep-validation cross-check only): the same
	// generation-stamp idiom as stale, deduplicating view entries by VOQ
	// without building a per-call map.
	checkSeen []uint64
	checkCand []scored
	checkGen  uint64

	repairs  int64 // sync calls satisfied by a delta repair
	rebuilds int64 // sync calls that needed a full rebuild

	m matcher
}

var _ Scheduler = (*Greedy)(nil)

// Name identifies the discipline and its parameters.
func (g *Greedy) Name() string { return g.name }

// Schedule brings the candidate index up to date with t — a delta repair
// from the dirty feed, or a full rebuild when the feed basis does not
// match — and runs the crossbar loop over its sorted view.
func (g *Greedy) Schedule(t *flow.Table) []*flow.Flow {
	g.sync(t)
	return g.m.pick(g.view, g.n)
}

// checkV rejects a negative tradeoff weight, which the model does not
// define.
func checkV(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("sched: negative V %g", v))
	}
}

// NewSRPT returns the Shortest Remaining Processing Time discipline as
// used in data-center transports (PDQ, pFabric, PASE), named "srpt": flows
// are considered in non-decreasing order of remaining size and greedily
// added until every remaining flow is blocked by the crossbar constraint.
// This is the approximate multi-link SRPT the paper describes in Section
// II-A — fast BASRPT's V → ∞ limit — with near-ideal delay but, as the
// paper demonstrates, a reduced stability region.
func NewSRPT() *Greedy {
	return &Greedy{name: "srpt", key: func(_ float64, f *flow.Flow, _ float64) float64 {
		return f.Remaining
	}}
}

// NewFastBASRPT returns paper Algorithm 1, named "fast-basrpt(V=...)":
// flows are considered in non-decreasing order of (V/N)·remaining −
// queueLength and greedily added under the crossbar constraint. Summing
// that key over a full N-flow decision yields V·ȳ − ΣXijRij, the exact
// BASRPT objective, so the greedy rule approximately minimizes the
// drift-plus-penalty bound while assigning every flow a global priority —
// which is what makes a distributed implementation possible.
//
// V >= 0 weighs FCT minimization against queue stabilization (paper
// Section IV): V → ∞ recovers SRPT, V = 0 serves the longest queues
// (MaxWeight-like). It panics on negative V.
func NewFastBASRPT(v float64) *Greedy {
	checkV(v)
	return &Greedy{name: fmt.Sprintf("fast-basrpt(V=%g)", v), key: basrptKey, v: v}
}

// NewNoisyFastBASRPT returns fast BASRPT operating on *estimated* flow
// sizes, named "noisy-basrpt(V=...,noise=...)". The paper (like
// pFabric/PDQ/PASE) assumes exact prior knowledge of sizes; real systems
// estimate them, so this variant quantifies the sensitivity: each flow's
// remaining size is perceived as remaining·factor, where factor is a
// deterministic per-flow multiplicative error, log-uniform in
// [1/(1+noiseLevel), 1+noiseLevel] (see noiseFactor). Queue lengths
// (local state) stay exact. noiseLevel = 0 is plain fast BASRPT.
//
// Modeling scope: the error perturbs each VOQ head flow's priority in the
// cross-VOQ competition; within a VOQ the true shortest flow still
// represents the queue (the candidate-per-VOQ optimization). This models
// an estimator that mis-sizes flows but a transport that still drains a
// chosen queue shortest-first. It panics on negative v or noiseLevel.
func NewNoisyFastBASRPT(v, noiseLevel float64) *Greedy {
	checkV(v)
	if noiseLevel < 0 {
		panic(fmt.Sprintf("sched: negative noise level %g", noiseLevel))
	}
	logSpan := math.Log(1 + noiseLevel)
	key := func(vn float64, f *flow.Flow, backlog float64) float64 {
		return vn*f.Remaining*noiseFactor(f.ID, logSpan) - backlog
	}
	return &Greedy{name: fmt.Sprintf("noisy-basrpt(V=%g,noise=%g)", v, noiseLevel), key: key, v: v}
}

// noiseFactor derives a flow's deterministic estimation error from its ID
// via a splitmix64-style hash, mapped log-uniformly onto
// [exp(−logSpan), exp(logSpan)]. Being a pure function of the ID keeps
// runs reproducible and the noisy key safe to cache in the index, and
// gives each flow a consistent bias, like a real per-flow estimator would.
func noiseFactor(id flow.ID, logSpan float64) float64 {
	if logSpan == 0 {
		return 1
	}
	z := stats.Mix64(uint64(id) + stats.Golden64)
	u := float64(z>>11) / (1 << 53) // uniform [0, 1)
	return math.Exp((2*u - 1) * logSpan)
}

// NewMaxWeight returns MaxWeight, named "maxweight": it serves the longest
// queues first — the classic throughput-optimal (but delay-oblivious)
// input-queued switch discipline, and the V = 0 limit of the BASRPT
// family. Within a chosen VOQ the shortest flow transmits.
func NewMaxWeight() *Greedy {
	return &Greedy{name: "maxweight", key: func(_ float64, _ *flow.Flow, backlog float64) float64 {
		return -backlog
	}}
}

// NewThresholdBacklog returns the simple backlog-aware strategy of the
// paper's Figure 2 motivation, named "threshold(T=...)": flows whose VOQ
// backlog exceeds threshold (same unit as flow sizes) are prioritized,
// longest backlog first; all other flows are scheduled by plain SRPT
// behind them. The key is two-band: over-threshold VOQs map to negative
// values ordered by descending backlog, the rest keep their SRPT ordering
// at >= 0.
func NewThresholdBacklog(threshold float64) *Greedy {
	key := func(_ float64, f *flow.Flow, backlog float64) float64 {
		if backlog > threshold {
			return -backlog
		}
		return f.Remaining
	}
	return &Greedy{name: fmt.Sprintf("threshold(T=%g)", threshold), key: key}
}
