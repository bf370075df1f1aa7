package fabricsim

import (
	"math"
	"strings"
	"testing"

	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// mixedGen builds the standard mixed workload used by the fault tests.
func mixedGen(t *testing.T, topo *topology.Topology, load, duration float64, seed uint64) workload.Generator {
	t.Helper()
	gen, err := workload.NewMixed(workload.MixedConfig{
		Topology:          topo,
		Load:              load,
		QueryByteFraction: workload.DefaultQueryByteFraction,
		Duration:          duration,
		Seed:              seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestLinkFaultDelaysFlow: a hard link fault freezes the only flow for the
// whole window, so its FCT grows by exactly the fault duration.
func TestLinkFaultDelaysFlow(t *testing.T) {
	// 3000 bytes at 1000 B/s: 3 s fault-free. Port 0's link is dead on
	// [1, 2), so the flow finishes at t = 4 instead of t = 3.
	schedule := &faults.Schedule{
		Seed:    1,
		Horizon: 10,
		LinkFaults: []faults.LinkFault{
			{Window: faults.Window{Start: 1, End: 2}, Port: 0, RateFraction: 0},
		},
	}
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 3000, Class: flow.ClassQuery},
	})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 10, ValidateDecisions: true,
		Faults: faults.NewInjector(schedule),
	})
	if res.CompletedFlows != 1 {
		t.Fatalf("completed = %d, want 1", res.CompletedFlows)
	}
	if got := res.FCT.Stats(flow.ClassQuery).MeanMs; math.Abs(got-4000) > 1e-6 {
		t.Fatalf("FCT = %g ms, want 4000 (3 s transfer + 1 s outage)", got)
	}
	if res.Faults.LinkFaultStarts != 1 || res.Faults.LinkFaultEnds != 1 {
		t.Fatalf("fault counters = %+v, want one start and one end", res.Faults)
	}
}

// TestDegradedLinkHalvesRate: RateFraction 0.5 doubles the transfer time
// spent inside the window.
func TestDegradedLinkHalvesRate(t *testing.T) {
	// 3000 bytes at 1000 B/s with the link at half rate on [0, 2): the
	// first 2 s drain 1000 bytes, the remaining 2000 drain in 2 s more.
	schedule := &faults.Schedule{
		Seed:    1,
		Horizon: 10,
		LinkFaults: []faults.LinkFault{
			{Window: faults.Window{Start: 0, End: 2}, Port: 1, RateFraction: 0.5},
		},
	}
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 3000, Class: flow.ClassQuery},
	})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 10, ValidateDecisions: true,
		Faults: faults.NewInjector(schedule),
	})
	if got := res.FCT.Stats(flow.ClassQuery).MeanMs; math.Abs(got-4000) > 1e-6 {
		t.Fatalf("FCT = %g ms, want 4000 (2 s at half rate + 2 s at full)", got)
	}
}

// TestSchedulerOutageHoldsMatching: during an outage the fabric keeps
// transmitting under the held matching — never idle while work exists,
// never violating the crossbar constraint (ValidateDecisions checks every
// decision, including the held ones), and counting the held decisions.
func TestSchedulerOutageHoldsMatching(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 3))
	schedule := &faults.Schedule{
		Seed:    1,
		Horizon: 2,
		Outages: []faults.Window{{Start: 0.5, End: 1.2}},
	}
	res := mustRun(t, Config{
		Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
		Scheduler: sched.NewFastBASRPT(2500),
		Generator: mixedGen(t, topo, 0.8, 1.8, 11),
		Duration:  2, ValidateDecisions: true,
		Faults: faults.NewInjector(schedule),
	})
	if res.Faults.OutageStarts != 1 || res.Faults.OutageEnds != 1 {
		t.Fatalf("outage counters = %+v", res.Faults)
	}
	if res.Faults.DecisionsHeld == 0 {
		t.Fatal("no decisions served from the held matching during a 0.7 s outage")
	}
	// The fabric must keep completing flows across the outage window.
	if res.CompletedFlows == 0 {
		t.Fatal("no completions in a run spanning an outage")
	}
	if diff := math.Abs(res.ArrivedBytes - res.DepartedBytes - res.LeftoverBytes); diff > 1e-3*math.Max(1, res.ArrivedBytes) {
		t.Fatalf("byte conservation violated by %g", diff)
	}
	if !strings.HasSuffix(res.SchedulerName, "+hold") {
		t.Fatalf("scheduler name %q does not flag the outage fallback", res.SchedulerName)
	}
}

// TestWatchdogBacklogTruncation: a run pushed past its backlog bound stops
// at a sample tick with a partial Result whose Diagnosis explains the stop
// and whose metrics still conserve bytes.
func TestWatchdogBacklogTruncation(t *testing.T) {
	// One giant flow that can never finish: backlog stays near 1e6 bytes,
	// far above the 1000-byte bound, so the t=1 sample trips the watchdog.
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0.5, Src: 0, Dst: 1, Size: 1e6, Class: flow.ClassOther},
	})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 10, SampleInterval: 1, Seed: 77,
		Watchdog: &Watchdog{MaxBacklogBytes: 1000},
	})
	if !res.Truncated() {
		t.Fatal("watchdog did not truncate a diverging run")
	}
	d := res.Diagnosis
	if d.Reason != "backlog-bound" || d.Seed != 77 {
		t.Fatalf("diagnosis = %+v", d)
	}
	if d.SimTime <= 0 || d.SimTime >= 10 {
		t.Fatalf("truncated at t=%g, want inside (0, 10)", d.SimTime)
	}
	if res.Duration != d.SimTime {
		t.Fatalf("result duration %g != truncation time %g", res.Duration, d.SimTime)
	}
	if d.BacklogBytes <= 1000 {
		t.Fatalf("diagnosis backlog %g not above the bound", d.BacklogBytes)
	}
	if diff := math.Abs(res.ArrivedBytes - res.DepartedBytes - res.LeftoverBytes); diff > 1e-6 {
		t.Fatalf("truncated run breaks byte conservation by %g", diff)
	}
	if !math.IsNaN(res.AverageGbps()) && res.AverageGbps() < 0 {
		t.Fatalf("average throughput %g invalid after truncation", res.AverageGbps())
	}
}

// TestFaultRunDeterminism: the same workload seed and fault seed reproduce
// a fault run exactly — schedules, counters, and metrics.
func TestFaultRunDeterminism(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 3))
	run := func() *Result {
		schedule, err := faults.Generate(faults.Params{
			Seed:       21,
			Horizon:    2,
			Ports:      topo.NumHosts(),
			LinkFaults: 3,
			Outages:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: sched.NewFastBASRPT(2500),
			Generator: mixedGen(t, topo, 0.85, 1.8, 4),
			Duration:  2, ValidateDecisions: true,
			Faults: faults.NewInjector(schedule),
		})
	}
	a, b := run(), run()
	if a.CompletedFlows != b.CompletedFlows || a.DepartedBytes != b.DepartedBytes ||
		a.Decisions != b.Decisions || a.Faults != b.Faults {
		t.Fatalf("fault run not deterministic:\n%+v\n%+v", a.Faults, b.Faults)
	}
	if a.TotalBacklogSeries.Len() != b.TotalBacklogSeries.Len() {
		t.Fatal("backlog series lengths differ")
	}
	for i := range a.TotalBacklogSeries.Values {
		if a.TotalBacklogSeries.Values[i] != b.TotalBacklogSeries.Values[i] {
			t.Fatalf("backlog sample %d differs", i)
		}
	}
}

// TestFaultConfigValidation: New rejects schedules that do not fit the
// fabric and negative watchdog bounds.
func TestFaultConfigValidation(t *testing.T) {
	gen := workload.NewSliceGenerator(nil)
	base := Config{Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen, Duration: 1}

	outOfRange := &faults.Schedule{
		Seed:    1,
		Horizon: 1,
		LinkFaults: []faults.LinkFault{
			{Window: faults.Window{Start: 0.1, End: 0.2}, Port: 9},
		},
	}
	cfg := base
	cfg.Faults = faults.NewInjector(outOfRange)
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted a link fault on a port outside the fabric")
	}

	invalid := &faults.Schedule{Seed: 1, Horizon: -1}
	cfg = base
	cfg.Faults = faults.NewInjector(invalid)
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted an invalid schedule")
	}

	cfg = base
	cfg.Watchdog = &Watchdog{MaxBacklogBytes: -1}
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted a negative watchdog bound")
	}
}
