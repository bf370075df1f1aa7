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
	arrivals := oneEgressArrivals(1, hosts, linkBps, meanSize, rho, duration)

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

// oneEgressArrivals draws Poisson arrivals at rate ρ·C/E[S] from hosts
// 1..hosts-1, all sent to host 0, with exponential sizes of mean meanSize
// bytes.
func oneEgressArrivals(seed uint64, hosts int, linkBps, meanSize, rho, duration float64) []workload.Arrival {
	rng := stats.NewRNG(seed)
	rate := rho * linkBps / 8 / meanSize
	var arrivals []workload.Arrival
	for at := rng.Exp(rate); at < duration; at += rng.Exp(rate) {
		arrivals = append(arrivals, workload.Arrival{
			Time: at, Src: 1 + rng.Intn(hosts-1), Dst: 0,
			Size: rng.Exp(1 / meanSize), Class: flow.ClassBackground,
		})
	}
	return arrivals
}

// TestMG1MeanFCT checks the centralized engine's mean FCT against the
// closed forms of queueing theory. Eight hosts send Poisson arrivals to
// host 0, so the crossbar binds only at that egress and the port is an
// M/G/1 queue — the model Roberts & Rossi reason about size-based
// scheduling with. fifo serves it first come, first served, so its mean
// FCT is the Pollaczek–Khinchine sojourn time; srpt is preemptive SRPT,
// whose mean is Schrage and Miller's. Each must lie within its three-seed
// 95% confidence interval plus a relative tolerance, which covers the
// finite horizon (flows still queued at the end are never counted).
func TestMG1MeanFCT(t *testing.T) {
	const (
		hosts    = 9
		linkBps  = 10e9
		meanSize = 100e3 // bytes, exponential
		rho      = 0.7
		duration = 30.0
		seeds    = 3
		tol      = 0.02
	)
	meanS := meanSize * 8 / linkBps // mean service time
	lambda := rho / meanS
	arms := []struct {
		scheduler string
		want      float64 // mean FCT, seconds
		got       stats.Summary
	}{
		// Pollaczek–Khinchine: W = λE[S²]/(2(1−ρ)), E[S²] = 2E[S]².
		{scheduler: "fifo", want: lambda*2*meanS*meanS/(2*(1-rho)) + meanS},
		{scheduler: "srpt", want: srptMeanResponse(lambda, func(x float64) float64 {
			return math.Exp(-x/meanS) / meanS
		}, 40*meanS, 100000)},
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		arrivals := oneEgressArrivals(seed, hosts, linkBps, meanSize, rho, duration)
		for i := range arms {
			s, err := sched.New(arms[i].scheduler, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, Config{
				Hosts: hosts, LinkBps: linkBps, Scheduler: s,
				Generator: workload.NewSliceGenerator(arrivals), Duration: duration,
			})
			arms[i].got.Add(res.FCT.Stats(flow.ClassBackground).MeanMs / 1e3)
		}
	}
	for _, a := range arms {
		mean, ci := a.got.Mean(), a.got.CI95()
		t.Logf("%s: mean FCT %.1f µs ± %.1f (95%% CI, %d seeds), theory %.1f µs",
			a.scheduler, mean*1e6, ci*1e6, seeds, a.want*1e6)
		if math.Abs(mean-a.want) > ci+tol*a.want {
			t.Errorf("%s: mean FCT %.1f µs ± %.1f, theory %.1f µs (tolerance %.0f%%)",
				a.scheduler, mean*1e6, ci*1e6, a.want*1e6, tol*100)
		}
	}
}

// srptMeanResponse returns Schrage and Miller's mean response time of
// preemptive SRPT at an M/G/1 queue with arrival rate lambda and service
// time density pdf, by trapezoidal quadrature over n steps of [0, upper].
// A job of size x waits out the work of smaller jobs and of the one it
// finds in service, then runs at the rate the smaller arrivals leave it:
//
//	T(x) = λ(∫₀ˣ t² dF + x²(1−F(x))) / (2(1−ρ(x))²) + ∫₀ˣ dt/(1−ρ(t)),
//
// with ρ(x) = λ∫₀ˣ t dF, and E[T] = ∫ T(x) dF(x).
func srptMeanResponse(lambda float64, pdf func(float64) float64, upper float64, n int) float64 {
	h := upper / float64(n)
	var cdf, m1, m2, resid, mean float64
	prevX, prevP, prevT, prevInv := 0.0, pdf(0), 0.0, 1.0
	for i := 1; i <= n; i++ {
		x := float64(i) * h
		p := pdf(x)
		cdf += (prevP + p) / 2 * h
		m1 += (prevX*prevP + x*p) / 2 * h
		m2 += (prevX*prevX*prevP + x*x*p) / 2 * h
		load := lambda * m1
		inv := 1 / (1 - load)
		resid += (prevInv + inv) / 2 * h
		tx := lambda*(m2+x*x*(1-cdf))/(2*(1-load)*(1-load)) + resid
		mean += (prevT*prevP + tx*p) / 2 * h
		prevX, prevP, prevT, prevInv = x, p, tx, inv
	}
	return mean
}
