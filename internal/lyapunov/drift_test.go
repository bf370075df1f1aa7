package lyapunov_test

import (
	"math"
	"testing"

	"basrpt/internal/lyapunov"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/switchsim"
)

// This test drives the slotted switch, which computes L(X) through this
// package, so it lives in the external test package.

// TestStableSystemHasNearZeroDrift runs the slotted switch with fast
// BASRPT below capacity and checks that the long-run mean drift of L(X) is
// small relative to its excursions — the observable signature of positive
// recurrence.
func TestStableSystemHasNearZeroDrift(t *testing.T) {
	prob, err := switchsim.UniformLoadProb(4, 0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := switchsim.NewBernoulliArrivals(prob, stats.Uniform{Lo: 1, Hi: 3.001}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := switchsim.New(switchsim.Config{
		N:         4,
		Scheduler: sched.NewFastBASRPT(50),
		Arrivals:  arr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20000); err != nil {
		t.Fatal(err)
	}
	rep := lyapunov.EstimateDrift(sim.LyapunovSeries().Values)
	if rep.Steps < 10000 {
		t.Fatalf("too few drift samples: %d", rep.Steps)
	}
	if math.Abs(rep.MeanDrift) > rep.MaxDrift/10+1 {
		t.Fatalf("mean drift %g not near zero (max %g)", rep.MeanDrift, rep.MaxDrift)
	}
}
