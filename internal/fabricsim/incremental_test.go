package fabricsim

import (
	"strings"
	"testing"

	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// freshScheduler serves every decision from a newly built scheduler, so
// no candidate index survives from one decision to the next: the
// from-scratch arm of the sim-level equivalence tests. It is not a
// sched.Greedy, so the cell owns the dirty feed, exactly as it does for
// the disciplines without an index.
type freshScheduler struct {
	mk func() sched.Scheduler
}

func (s freshScheduler) Name() string { return s.mk().Name() }

func (s freshScheduler) Schedule(t *flow.Table) []*flow.Flow { return s.mk().Schedule(t) }

// sameResults compares every deterministic field of two runs. SchedNanos
// is deliberately excluded: it is measured wall-clock time.
func sameResults(t *testing.T, a, b *Result) {
	t.Helper()
	if a.ArrivedFlows != b.ArrivedFlows || a.CompletedFlows != b.CompletedFlows {
		t.Fatalf("flow counts diverged: %d/%d vs %d/%d",
			a.ArrivedFlows, a.CompletedFlows, b.ArrivedFlows, b.CompletedFlows)
	}
	if a.ArrivedBytes != b.ArrivedBytes || a.DepartedBytes != b.DepartedBytes ||
		a.LeftoverBytes != b.LeftoverBytes {
		t.Fatalf("byte accounting diverged: %g/%g/%g vs %g/%g/%g",
			a.ArrivedBytes, a.DepartedBytes, a.LeftoverBytes,
			b.ArrivedBytes, b.DepartedBytes, b.LeftoverBytes)
	}
	if a.Decisions != b.Decisions {
		t.Fatalf("decision counts diverged: %d vs %d", a.Decisions, b.Decisions)
	}
	if a.Faults != b.Faults {
		t.Fatalf("fault counters diverged: %+v vs %+v", a.Faults, b.Faults)
	}
	for _, class := range []flow.Class{flow.ClassQuery, flow.ClassOther} {
		if a.FCT.Stats(class) != b.FCT.Stats(class) {
			t.Fatalf("FCT stats diverged for class %v: %+v vs %+v",
				class, a.FCT.Stats(class), b.FCT.Stats(class))
		}
	}
	if a.TotalBacklogSeries.Len() != b.TotalBacklogSeries.Len() {
		t.Fatal("backlog series lengths diverged")
	}
	for i := range a.TotalBacklogSeries.Values {
		if a.TotalBacklogSeries.Values[i] != b.TotalBacklogSeries.Values[i] {
			t.Fatalf("backlog sample %d diverged", i)
		}
	}
	if a.QueueSeries.Len() != b.QueueSeries.Len() {
		t.Fatal("queue series lengths diverged")
	}
	for i := range a.QueueSeries.Values {
		if a.QueueSeries.Values[i] != b.QueueSeries.Values[i] {
			t.Fatalf("queue sample %d diverged", i)
		}
	}
}

// runPair executes the same simulation twice — once on one incremental
// scheduler, once on a fresh scheduler per decision — under continuous
// deep validation, and demands identical results.
func runPair(t *testing.T, mk func() sched.Scheduler, injector func() *faults.Injector) (*Result, *Result) {
	t.Helper()
	topo := topology.MustNew(topology.Scaled(2, 3))
	run := func(s sched.Scheduler) *Result {
		cfg := Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: s,
			Generator: mixedGen(t, topo, 0.85, 1.8, 11),
			Duration:  2, ValidateDecisions: true, DeepValidateEvery: 7,
			Seed: 11,
		}
		if injector != nil {
			cfg.Faults = injector()
		}
		return mustRun(t, cfg)
	}
	return run(mk()), run(freshScheduler{mk})
}

// TestIncrementalSimEquivalence: a full simulation driven by the
// incremental candidate index reproduces the from-scratch run exactly —
// same decisions, completions, byte accounting, and sample series.
func TestIncrementalSimEquivalence(t *testing.T) {
	cases := map[string]func() sched.Scheduler{
		"srpt":        func() sched.Scheduler { return sched.NewSRPT() },
		"fast-basrpt": func() sched.Scheduler { return sched.NewFastBASRPT(2500) },
		"maxweight":   func() sched.Scheduler { return sched.NewMaxWeight() },
		"threshold":   func() sched.Scheduler { return sched.NewThresholdBacklog(5000) },
	}
	for name, mk := range cases {
		mk := mk
		t.Run(name, func(t *testing.T) {
			a, b := runPair(t, mk, nil)
			sameResults(t, a, b)
		})
	}
}

// TestIncrementalSimEquivalenceUnderFaults: equivalence must survive link
// faults and scheduler outages — the outage fallback lets dirty VOQs
// accumulate unconsumed, exercising the index's delta-backlog repair, and
// deep validation cross-checks the index throughout.
func TestIncrementalSimEquivalenceUnderFaults(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 3))
	injector := func() *faults.Injector {
		schedule, err := faults.Generate(faults.Params{
			Seed:       21,
			Horizon:    2,
			Ports:      topo.NumHosts(),
			LinkFaults: 3,
			Outages:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return faults.NewInjector(schedule)
	}
	a, b := runPair(t, func() sched.Scheduler { return sched.NewFastBASRPT(2500) }, injector)
	sameResults(t, a, b)
	if a.Faults.OutageStarts == 0 {
		t.Fatal("fault schedule injected no outages; the test exercises nothing")
	}
}

// TestSchedulingThroughputExported: runs report the decision count and
// the wall-clock scheduling cost the benchmark divides by.
func TestSchedulingThroughputExported(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 2))
	res := mustRun(t, Config{
		Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
		Scheduler: sched.NewFastBASRPT(2500),
		Generator: mixedGen(t, topo, 0.7, 0.5, 3),
		Duration:  1,
	})
	if res.Decisions == 0 {
		t.Fatal("run took no decisions")
	}
	if res.SchedNanos <= 0 {
		t.Fatalf("SchedNanos = %d, want > 0", res.SchedNanos)
	}
}

// TestErrorContextIncludesEpoch: invariant failures carry the table epoch
// so incremental-index divergences are replayable from the message alone.
func TestErrorContextIncludesEpoch(t *testing.T) {
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 1.0, Src: 0, Dst: 1, Size: 100, Class: flow.ClassOther},
		{Time: 0.5, Src: 1, Dst: 0, Size: 100, Class: flow.ClassOther}, // out of order
	})
	sim, err := New(Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 3, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = sim.Run(); err == nil {
		t.Fatal("out-of-order arrival not rejected")
	} else if !strings.Contains(err.Error(), "epoch=") {
		t.Fatalf("error lacks table epoch: %v", err)
	}
}

// TestDiagnosisIncludesEpoch: watchdog truncations pin the table state.
func TestDiagnosisIncludesEpoch(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 2))
	res := mustRun(t, Config{
		Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
		Scheduler: sched.NewFastBASRPT(2500),
		Generator: mixedGen(t, topo, 0.9, 2, 5),
		Duration:  2,
		Watchdog:  &Watchdog{MaxBacklogBytes: 1}, // any queued byte trips it

	})
	if !res.Truncated() {
		t.Fatal("overloaded run not truncated")
	}
	if res.Diagnosis.TableEpoch == 0 {
		t.Fatal("diagnosis lacks table epoch")
	}
	if !strings.Contains(res.Diagnosis.String(), "epoch") {
		t.Fatalf("diagnosis string lacks epoch: %s", res.Diagnosis)
	}
}
