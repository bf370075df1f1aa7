package fabricsim

import (
	"runtime"
	"testing"
	"time"

	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
)

// Steady-state allocation ceiling per scheduling decision. Measured
// steady state is ~0.06 allocs and ~75 B per decision; the slack absorbs
// metrics-slice growth and the end-of-run registry snapshot, while a
// reintroduced per-decision allocation (one slice, one flow, one boxed
// event = >= 1/decision) trips it immediately.
const (
	maxAllocsPerDecision     = 0.25
	maxAllocBytesPerDecision = 512
)

// TestSteadyStateAllocsPerDecision gates allocator pressure on the
// paper's 144-host fabric at 0.8 load: the MemStats delta around Run —
// construction excluded — divided by the run's scheduling decisions.
func TestSteadyStateAllocsPerDecision(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(12, 12))
	for _, s := range []sched.Scheduler{sched.NewSRPT(), sched.NewFastBASRPT(2500)} {
		sim, err := New(Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: s,
			Generator: mixedGen(t, topo, 0.8, 0.02, 1),
			Duration:  0.02, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sim.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decisions == 0 {
			t.Fatalf("%s: run took no decisions", s.Name())
		}
		dec := float64(res.Decisions)
		allocs := float64(after.Mallocs-before.Mallocs) / dec
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / dec
		t.Logf("%s: %d decisions, %.4f allocs/decision, %.1f B/decision", s.Name(), res.Decisions, allocs, bytes)
		if allocs > maxAllocsPerDecision {
			t.Errorf("%s: %.4f allocs/decision exceeds %.2f", s.Name(), allocs, maxAllocsPerDecision)
		}
		if bytes > maxAllocBytesPerDecision {
			t.Errorf("%s: %.1f B/decision exceeds %d", s.Name(), bytes, maxAllocBytesPerDecision)
		}
	}
}

// TestDecomposedAllocsPerDecision holds the decomposed engine to the
// same allocation ceiling on 288 hosts (24 racks) at 0.5 load. The
// MemStats delta runs from the first barrier's heartbeat to the last, so
// cell construction and the end-of-run merge are excluded and what is
// left is the steady barrier loop: windows, routing, and folds. Boxing
// each cross-rack message again (one allocation per message, ~0.4 per
// decision here) trips it.
func TestDecomposedAllocsPerDecision(t *testing.T) {
	var first, last runtime.MemStats
	var firstDec, lastDec int64
	seen := false
	res, err := RunShard(ShardConfig{
		Topology:  topology.MustNew(topology.Scaled(24, 12)),
		Scheduler: "fast-basrpt",
		Load:      0.5,
		Duration:  0.01,
		Seed:      1,
		Shards:    2,
		Workers:   1,
		OnWindow: func(p ShardProgress) {
			if !seen {
				seen = true
				runtime.ReadMemStats(&first)
				firstDec = p.Decisions
				return
			}
			runtime.ReadMemStats(&last)
			lastDec = p.Decisions
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dec := float64(lastDec - firstDec)
	if dec <= 0 {
		t.Fatalf("no decisions between the first and last barrier (run total %d)", res.Decisions)
	}
	allocs := float64(last.Mallocs-first.Mallocs) / dec
	bytes := float64(last.TotalAlloc-first.TotalAlloc) / dec
	t.Logf("%.0f decisions, %.4f allocs/decision, %.1f B/decision", dec, allocs, bytes)
	if allocs > maxAllocsPerDecision {
		t.Errorf("%.4f allocs/decision exceeds %.2f", allocs, maxAllocsPerDecision)
	}
}

// disabledObs is the nil handle the overhead probe emits through. A
// package variable, so the compiler cannot fold the nil check away.
var disabledObs *obs.Obs

// maxDisabledObsOverheadPct bounds what the observability probes cost
// when no Obs is configured, as a share of the per-decision scheduling
// cost: "observability is free when off". Measured is ~1% on a 24-host
// fabric; an accidental always-on probe (one map lookup or time.Now per
// decision) costs whole percents.
const maxDisabledObsOverheadPct = 2.0

// TestDisabledObsOverhead bounds the disabled-path probe cost. A rate
// delta between two runs would drown the ~ns probe in run-to-run noise,
// so the test prices the probe directly instead: the nil-handle Emit cost
// times the probes a run fires per decision (the events a ring-only Obs
// counts, plus the two always-on counter adds in reschedule), against
// the measured scheduling cost per decision. It runs on 24 hosts: tiny
// 4-port fabrics have ~200 ns decisions, where the bound would flake.
func TestDisabledObsOverhead(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(4, 6))
	run := func(o *obs.Obs) *Result {
		return mustRun(t, Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: sched.NewFastBASRPT(2500),
			Generator: mixedGen(t, topo, 0.7, 0.1, 3),
			Duration:  0.1, Seed: 3, Obs: o,
		})
	}
	disabled := run(nil)
	ring := obs.New(obs.Options{})
	enabled := run(ring)
	if disabled.Decisions == 0 || disabled.Decisions != enabled.Decisions {
		t.Fatalf("decisions: disabled %d, enabled %d", disabled.Decisions, enabled.Decisions)
	}

	const iters = 20_000_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		disabledObs.Emit(0, "probe", -1, 0, "")
	}
	probeNs := float64(time.Since(start).Nanoseconds()) / iters

	dec := float64(disabled.Decisions)
	probesPerDecision := float64(ring.EventCount())/dec + 2
	decisionNs := float64(disabled.SchedNanos) / dec
	pct := 100 * probeNs * probesPerDecision / decisionNs
	t.Logf("probe %.2f ns x %.2f probes/decision vs %.0f ns/decision = %.3f%%",
		probeNs, probesPerDecision, decisionNs, pct)
	if pct > maxDisabledObsOverheadPct {
		t.Fatalf("disabled-probe overhead %.3f%% exceeds %.1f%%", pct, maxDisabledObsOverheadPct)
	}
}
