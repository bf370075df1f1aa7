// Package lyapunov makes the paper's Theorem 1 executable: the quadratic
// Lyapunov function L(X) = ½ΣXij², its empirical drift along a simulated
// trajectory, and the theorem's constants — B′ = N(1+NB)/2, the delay gap
// bound B′/V, and the backlog bound (B′ + V(ȳ* − y_min))/ε.
package lyapunov

import (
	"fmt"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// Value computes L(X) = ½ Σij Xij² over the current VOQ backlogs.
func Value(t *flow.Table) float64 {
	var sum float64
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		b := q.Backlog()
		sum += b * b
	})
	return sum / 2
}

// MeanSelectedSize returns the penalty ȳ(t): the mean remaining size of the
// selected flows, or 0 for an empty decision (an idle slot contributes no
// penalty).
func MeanSelectedSize(decision []*flow.Flow) float64 {
	if len(decision) == 0 {
		return 0
	}
	var sum float64
	for _, f := range decision {
		sum += f.Remaining
	}
	return sum / float64(len(decision))
}

// BPrime returns B′ = N(1+NB)/2, the drift constant of Theorem 1, where N
// is the port count and B bounds E[Aij²] (second moment of per-slot
// arrivals in packets).
func BPrime(n int, b float64) float64 {
	return float64(n) * (1 + float64(n)*b) / 2
}

// DelayGapBound returns Theorem 1's bound on the penalty gap between
// BASRPT and the delay-optimal algorithm α*: B′/V = N(1+NB)/(2V).
// It panics on non-positive V, for which the bound is undefined.
func DelayGapBound(n int, b, v float64) float64 {
	if v <= 0 {
		panic(fmt.Sprintf("lyapunov: delay gap undefined for V = %g", v))
	}
	return BPrime(n, b) / v
}

// BacklogBound returns Theorem 1's bound on the time-average total queue
// length: (B′ + V(ȳ* − y_min)) / ε. It panics on non-positive ε (the
// theorem does not cover the ε = 0 boundary, as the paper discusses).
func BacklogBound(n int, b, v, epsilon, yStar, yMin float64) float64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("lyapunov: backlog bound undefined for ε = %g", epsilon))
	}
	gap := yStar - yMin
	if gap < 0 {
		gap = 0
	}
	return (BPrime(n, b) + v*gap) / epsilon
}

// DriftReport summarizes the empirical one-step Lyapunov drift
// Δ(t) = L(t+1) − L(t) along a trajectory.
type DriftReport struct {
	// MeanDrift is the average one-step drift. For a stable (positive
	// recurrent) system observed long enough it hovers near 0; persistent
	// positive values indicate accumulating backlog.
	MeanDrift float64
	// MaxDrift is the largest single-step increase.
	MaxDrift float64
	// Steps is the number of drift samples (len(series) − 1).
	Steps int
}

// EstimateDrift computes the empirical drift report from a sampled L(X)
// series. Fewer than two samples yield a zero report.
func EstimateDrift(lSeries []float64) DriftReport {
	if len(lSeries) < 2 {
		return DriftReport{}
	}
	var s stats.Summary
	maxDrift := lSeries[1] - lSeries[0]
	for i := 1; i < len(lSeries); i++ {
		d := lSeries[i] - lSeries[i-1]
		s.Add(d)
		if d > maxDrift {
			maxDrift = d
		}
	}
	return DriftReport{
		MeanDrift: s.Mean(),
		MaxDrift:  maxDrift,
		Steps:     int(s.Count()),
	}
}
