package core

import (
	"fmt"
	"math"
	"time"

	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/trace"
)

// AblationResult is experiment E8: how close fast BASRPT's greedy decision
// comes to exact BASRPT's exhaustive optimum, and what the exhaustive
// search costs — the quantitative version of the paper's Section IV-C
// impracticality argument.
type AblationResult struct {
	N      int
	Trials int
	V      float64

	// IdenticalFraction is the share of trials where the two decisions
	// had equal objective value.
	IdenticalFraction float64
	// MeanGap and MaxGap measure objective(fast) − objective(exact),
	// normalized by the mean absolute exact objective (>= 0 by
	// construction).
	MeanGap float64
	MaxGap  float64
	// ExactMeanTime and FastMeanTime are the average decision latencies.
	ExactMeanTime time.Duration
	FastMeanTime  time.Duration
}

// RunExactVsFast compares the two decision rules on random backlogged
// states of an n-port switch (n must stay within exact BASRPT's limit).
// seed drives the random states (0 selects 1).
func RunExactVsFast(n, trials int, v float64, seed uint64) (*AblationResult, error) {
	if n < 2 || n > sched.DefaultExactMaxPorts {
		return nil, fmt.Errorf("ablation: n = %d outside [2, %d]", n, sched.DefaultExactMaxPorts)
	}
	if trials < 1 {
		return nil, fmt.Errorf("ablation: trials = %d", trials)
	}
	if v < 0 {
		return nil, fmt.Errorf("ablation: negative V %g", v)
	}
	r := stats.NewRNG(primarySeed(seed))
	exact := sched.NewExactBASRPT(v)
	fast := sched.NewFastBASRPT(v)

	res := &AblationResult{N: n, Trials: trials, V: v}
	var gapSum, maxGap, exactAbsSum float64
	var exactNs, fastNs int64
	identical := 0
	for trial := 0; trial < trials; trial++ {
		tab := flow.NewTable(n)
		count := 1 + r.Intn(3*n)
		for i := 0; i < count; i++ {
			size := 1 + math.Floor(r.Float64()*1000) + float64(i)*1e-3
			tab.Add(flow.NewFlow(flow.ID(i+1), r.Intn(n), r.Intn(n), flow.ClassOther, size, 0))
		}
		start := time.Now()
		exactDecision := exact.Schedule(tab)
		exactNs += time.Since(start).Nanoseconds()
		start = time.Now()
		fastDecision := fast.Schedule(tab)
		fastNs += time.Since(start).Nanoseconds()

		exactObj := sched.Objective(v, tab, exactDecision)
		fastObj := sched.Objective(v, tab, fastDecision)
		gap := fastObj - exactObj
		if gap < -1e-6*math.Max(1, math.Abs(exactObj)) {
			return nil, fmt.Errorf("ablation: exact worse than fast (%g > %g) — exhaustive search bug", exactObj, fastObj)
		}
		if gap < 0 {
			gap = 0 // summation-order float noise
		}
		if gap <= 1e-9 {
			identical++
		}
		gapSum += gap
		maxGap = math.Max(maxGap, gap)
		exactAbsSum += math.Abs(exactObj)
	}
	res.IdenticalFraction = float64(identical) / float64(trials)
	res.MaxGap = maxGap
	// Division by a positive constant is monotone, so normalizing the
	// maximum equals the maximum of the normalized gaps.
	if norm := exactAbsSum / float64(trials); norm > 0 {
		res.MeanGap = gapSum / float64(trials) / norm
		res.MaxGap = maxGap / norm
	}
	res.ExactMeanTime = time.Duration(exactNs / int64(trials))
	res.FastMeanTime = time.Duration(fastNs / int64(trials))
	return res, nil
}

// Render prints the ablation summary.
func (r *AblationResult) Render() string {
	tbl := trace.Table{
		Title:   fmt.Sprintf("Ablation — exact vs fast BASRPT, %d ports, %d random states, V=%g", r.N, r.Trials, r.V),
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("identical decisions", fmt.Sprintf("%.1f%%", r.IdenticalFraction*100))
	tbl.AddRow("mean normalized objective gap", fmt.Sprintf("%.4f", r.MeanGap))
	tbl.AddRow("max normalized objective gap", fmt.Sprintf("%.4f", r.MaxGap))
	tbl.AddRow("exact mean decision time", r.ExactMeanTime.String())
	tbl.AddRow("fast mean decision time", r.FastMeanTime.String())
	return tbl.Render() +
		"\npaper: exact BASRPT is factorially expensive; fast BASRPT approximates it with per-decision sorting\n"
}
