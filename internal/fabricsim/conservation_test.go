package fabricsim

import (
	"math"
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/workload"
)

// TestWorkConservationAtOneEgress checks the engine against a queueing
// identity instead of against itself. When every flow goes to one host,
// the crossbar binds only at that egress, and each registry discipline
// serves one flow there whenever it has backlog. The port is then one
// work-conserving server, so the unfinished work is the same function of
// time under every discipline, whatever order it serves the flows in.
// Eight hosts keep exact-basrpt inside its port limit.
func TestWorkConservationAtOneEgress(t *testing.T) {
	const (
		hosts    = 8
		linkBps  = 10e9
		meanSize = 100e3 // bytes, exponential
		rho      = 0.7
		duration = 2.0
		tol      = 1e-3 // bytes
	)
	// Poisson arrivals at rate ρ·C/E[S] from the seven other hosts.
	rng := stats.NewRNG(1)
	rate := rho * linkBps / 8 / meanSize
	var arrivals []workload.Arrival
	for at := rng.Exp(rate); at < duration; at += rng.Exp(rate) {
		arrivals = append(arrivals, workload.Arrival{
			Time: at, Src: 1 + rng.Intn(hosts-1), Dst: 0,
			Size: rng.Exp(1 / meanSize), Class: flow.ClassBackground,
		})
	}

	var ref *Result
	var refName string
	maxDiff := 0.0
	for _, name := range sched.Names() {
		s, err := sched.New(name, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, Config{
			Hosts: hosts, LinkBps: linkBps, Scheduler: s,
			Generator: workload.NewSliceGenerator(arrivals), Duration: duration,
		})
		if res.ArrivedFlows != len(arrivals) {
			t.Fatalf("%s admitted %d of %d flows", name, res.ArrivedFlows, len(arrivals))
		}
		if ref == nil {
			ref, refName = res, name
			continue
		}
		got, want := res.TotalBacklogSeries, ref.TotalBacklogSeries
		if len(got.Values) != len(want.Values) {
			t.Fatalf("%s sampled %d points, %s %d", name, len(got.Values), refName, len(want.Values))
		}
		for i := range want.Values {
			d := math.Abs(got.Values[i] - want.Values[i])
			if got.Times[i] != want.Times[i] || d > tol {
				t.Fatalf("%s backlog at t=%g is %.9g bytes, %s has %.9g at t=%g",
					name, got.Times[i], got.Values[i], refName, want.Values[i], want.Times[i])
			}
			maxDiff = math.Max(maxDiff, d)
		}
		d := math.Abs(res.DepartedBytes - ref.DepartedBytes)
		if d > tol {
			t.Fatalf("%s departed %.9g bytes, %s %.9g (|diff| %g)", name, res.DepartedBytes, refName, ref.DepartedBytes, d)
		}
		maxDiff = math.Max(maxDiff, d)
	}
	t.Logf("%d flows; largest backlog or departure difference from %s: %g bytes", len(arrivals), refName, maxDiff)
}
