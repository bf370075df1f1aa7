package fabricsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// link is a convenient test link rate: 1000 bytes per second.
const link = 8000.0

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewValidation(t *testing.T) {
	gen := workload.NewSliceGenerator(nil)
	good := Config{Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen, Duration: 1}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	disabled := good
	disabled.Watchdog = &Watchdog{MaxBacklogBytes: 0}
	if _, err := New(disabled); err != nil {
		t.Fatalf("watchdog bound 0 (disabled) rejected: %v", err)
	}
	nanWindow := &faults.Schedule{Seed: 1, Horizon: 1, Outages: []faults.Window{{Start: math.NaN(), End: math.NaN()}}}
	cases := []func(Config) Config{
		func(c Config) Config { c.Hosts = 0; return c },
		func(c Config) Config { c.LinkBps = 0; return c },
		func(c Config) Config { c.Scheduler = nil; return c },
		func(c Config) Config { c.Generator = nil; return c },
		func(c Config) Config { c.Duration = 0; return c },
		func(c Config) Config { c.Duration = math.NaN(); return c },
		func(c Config) Config { c.Duration = math.Inf(1); return c },
		func(c Config) Config { c.SampleInterval = math.NaN(); return c },
		func(c Config) Config { c.SampleInterval = math.Inf(1); return c },
		func(c Config) Config { c.ThroughputBucket = math.NaN(); return c },
		func(c Config) Config { c.ThroughputBucket = math.Inf(1); return c },
		// A NaN or +Inf bound never trips, so it would turn the watchdog off.
		func(c Config) Config { c.Watchdog = &Watchdog{MaxBacklogBytes: math.NaN()}; return c },
		func(c Config) Config { c.Watchdog = &Watchdog{MaxBacklogBytes: math.Inf(1)}; return c },
		func(c Config) Config { c.Faults = faults.NewInjector(nanWindow); return c },
	}
	for i, mutate := range cases {
		if _, err := New(mutate(good)); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestNewChecksExactBASRPTPorts: exact BASRPT's port limit fails New
// with an error, before any decision, instead of panicking mid-run.
func TestNewChecksExactBASRPTPorts(t *testing.T) {
	cfg := Config{Hosts: sched.DefaultExactMaxPorts, LinkBps: link, Scheduler: sched.NewExactBASRPT(1),
		Generator: workload.NewSliceGenerator(nil), Duration: 1}
	if _, err := New(cfg); err != nil {
		t.Fatalf("exact BASRPT on %d hosts rejected: %v", cfg.Hosts, err)
	}
	cfg.Hosts++
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "exceeds limit 8") {
		t.Fatalf("exact BASRPT on %d hosts: err = %v, want the 8-port limit", cfg.Hosts, err)
	}
}

func TestSingleFlowFCT(t *testing.T) {
	// 1000 bytes at 1000 B/s: exactly 1 second.
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0.5, Src: 0, Dst: 1, Size: 1000, Class: flow.ClassQuery},
	})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 3, ValidateDecisions: true,
	})
	if res.CompletedFlows != 1 || res.ArrivedFlows != 1 {
		t.Fatalf("flows = %d/%d, want 1/1", res.CompletedFlows, res.ArrivedFlows)
	}
	cs := res.FCT.Stats(flow.ClassQuery)
	if math.Abs(cs.MeanMs-1000) > 1e-6 {
		t.Fatalf("FCT = %g ms, want 1000", cs.MeanMs)
	}
	if math.Abs(res.DepartedBytes-1000) > 1e-6 {
		t.Fatalf("departed = %g, want 1000", res.DepartedBytes)
	}
	if res.LeftoverBytes != 0 || res.LeftoverFlows != 0 {
		t.Fatalf("leftover = %g bytes / %d flows", res.LeftoverBytes, res.LeftoverFlows)
	}
}

func TestSRPTPreemptsLongFlow(t *testing.T) {
	// Long flow starts at 0; short flow arrives at 1s sharing the source.
	// Under SRPT the short one preempts immediately.
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 5000, Class: flow.ClassBackground}, // 5 s alone
		{Time: 1, Src: 0, Dst: 1, Size: 500, Class: flow.ClassQuery},       // 0.5 s
	})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 10, ValidateDecisions: true,
	})
	q := res.FCT.Stats(flow.ClassQuery)
	if math.Abs(q.MeanMs-500) > 1e-6 {
		t.Fatalf("query FCT = %g ms, want 500 (preemption)", q.MeanMs)
	}
	// Long flow: 1s of service before preemption, 0.5s paused, finishes at
	// 0 + 5s + 0.5s = 5.5s.
	b := res.FCT.Stats(flow.ClassBackground)
	if math.Abs(b.MeanMs-5500) > 1e-6 {
		t.Fatalf("background FCT = %g ms, want 5500", b.MeanMs)
	}
}

func TestParallelNonConflictingFlows(t *testing.T) {
	// Two flows on disjoint port pairs transmit simultaneously.
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 1000, Class: flow.ClassOther},
		{Time: 0, Src: 2, Dst: 3, Size: 1000, Class: flow.ClassOther},
	})
	res := mustRun(t, Config{
		Hosts: 4, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 2, ValidateDecisions: true,
	})
	cs := res.FCT.Stats(flow.ClassOther)
	if cs.Count != 2 {
		t.Fatalf("completions = %d, want 2", cs.Count)
	}
	if math.Abs(cs.MaxMs-1000) > 1e-6 {
		t.Fatalf("max FCT = %g ms, want 1000 (parallel transfer)", cs.MaxMs)
	}
}

func TestConflictingFlowsSerialize(t *testing.T) {
	// Same destination: must serialize even from different sources.
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0, Src: 0, Dst: 2, Size: 1000, Class: flow.ClassOther},
		{Time: 0, Src: 1, Dst: 2, Size: 1000, Class: flow.ClassOther},
	})
	res := mustRun(t, Config{
		Hosts: 3, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 5, ValidateDecisions: true,
	})
	cs := res.FCT.Stats(flow.ClassOther)
	if cs.Count != 2 {
		t.Fatalf("completions = %d, want 2", cs.Count)
	}
	if math.Abs(cs.MaxMs-2000) > 1e-6 {
		t.Fatalf("max FCT = %g ms, want 2000 (serialized)", cs.MaxMs)
	}
}

func TestLeftoverAccounting(t *testing.T) {
	// A flow too large to finish within the horizon.
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 10000, Class: flow.ClassOther},
	})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 2, ValidateDecisions: true,
	})
	if res.CompletedFlows != 0 || res.LeftoverFlows != 1 {
		t.Fatalf("completed/leftover = %d/%d", res.CompletedFlows, res.LeftoverFlows)
	}
	if math.Abs(res.DepartedBytes-2000) > 1 {
		t.Fatalf("departed = %g, want ~2000", res.DepartedBytes)
	}
	if math.Abs(res.LeftoverBytes-8000) > 1 {
		t.Fatalf("leftover = %g, want ~8000", res.LeftoverBytes)
	}
	// Conservation.
	if math.Abs(res.ArrivedBytes-res.DepartedBytes-res.LeftoverBytes) > 1e-6 {
		t.Fatal("byte conservation violated")
	}
}

func TestThroughputSeries(t *testing.T) {
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 4000, Class: flow.ClassOther},
	})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 8, ThroughputBucket: 1,
	})
	s := res.Throughput.SeriesGbps()
	// 1000 B/s for the first 4 seconds = 8000 bps = 8e-6 Gbps per bucket.
	for i := 0; i < 4; i++ {
		if math.Abs(s.Values[i]-8e-6) > 1e-12 {
			t.Fatalf("bucket %d = %g, want 8e-6 Gbps", i, s.Values[i])
		}
	}
}

func TestQueueSeriesMonitorsPort(t *testing.T) {
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 5000, Class: flow.ClassOther},
	})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 4, SampleInterval: 1,
	})
	if res.QueueSeries.Len() < 4 {
		t.Fatalf("queue series too short: %d", res.QueueSeries.Len())
	}
	// At t=1 (sample 1) about 4000 bytes remain at ingress port 0, the
	// monitored port.
	if got := res.QueueSeries.Values[1]; math.Abs(got-4000) > 1 {
		t.Fatalf("queue sample at t=1 = %g, want ~4000", got)
	}
	if res.MaxPortSeries.Values[1] < 3999 {
		t.Fatalf("max-port series = %g", res.MaxPortSeries.Values[1])
	}
}

func TestDecisionUpdatesOnlyOnArrivalAndCompletion(t *testing.T) {
	// Three arrivals and three completions, all disjoint in time: at most
	// 6 scheduling decisions (sampling must not trigger reschedules).
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 500, Class: flow.ClassOther},
		{Time: 2, Src: 1, Dst: 0, Size: 500, Class: flow.ClassOther},
		{Time: 4, Src: 0, Dst: 1, Size: 500, Class: flow.ClassOther},
	})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 10, SampleInterval: 0.01,
	})
	if res.Decisions > 6 {
		t.Fatalf("decisions = %d, want <= 6", res.Decisions)
	}
	if res.CompletedFlows != 3 {
		t.Fatalf("completed = %d, want 3", res.CompletedFlows)
	}
}

// TestByteConservationProperty: arrived = departed + leftover for random
// mixed workloads across schedulers.
func TestByteConservationProperty(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 3))
	schedulers := []sched.Scheduler{
		sched.NewSRPT(),
		sched.NewFastBASRPT(2500),
		sched.NewMaxWeight(),
		sched.NewThresholdBacklog(1e5),
	}
	f := func(seed uint64) bool {
		gen, err := workload.NewMixed(workload.MixedConfig{
			Topology:          topo,
			Load:              0.3 + float64(seed%50)/100,
			QueryByteFraction: workload.DefaultQueryByteFraction,
			Duration:          0.5,
			Seed:              seed + 1,
		})
		if err != nil {
			return false
		}
		sim, err := New(Config{
			Hosts:             topo.NumHosts(),
			LinkBps:           topo.HostLinkBps(),
			Scheduler:         schedulers[seed%uint64(len(schedulers))],
			Generator:         gen,
			Duration:          1,
			ValidateDecisions: true,
		})
		if err != nil {
			return false
		}
		res, err := sim.Run()
		if err != nil {
			return false
		}
		if res.ArrivedFlows != res.CompletedFlows+res.LeftoverFlows {
			return false
		}
		diff := math.Abs(res.ArrivedBytes - res.DepartedBytes - res.LeftoverBytes)
		return diff <= 1e-3*math.Max(1, res.ArrivedBytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSRPTMinimizesMeanFCTOnSingleLink: on a single bottleneck, SRPT's mean
// FCT is no worse than FIFO's or MaxWeight's (SRPT optimality, Section II).
func TestSRPTMinimizesMeanFCTOnSingleLink(t *testing.T) {
	arrivals := []workload.Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 4000, Class: flow.ClassOther},
		{Time: 0.1, Src: 0, Dst: 1, Size: 1000, Class: flow.ClassOther},
		{Time: 0.2, Src: 0, Dst: 1, Size: 500, Class: flow.ClassOther},
		{Time: 0.3, Src: 0, Dst: 1, Size: 2000, Class: flow.ClassOther},
	}
	run := func(s sched.Scheduler) float64 {
		res := mustRun(t, Config{
			Hosts: 2, LinkBps: link,
			Scheduler: s,
			Generator: workload.NewSliceGenerator(arrivals),
			Duration:  60, ValidateDecisions: true,
		})
		if res.CompletedFlows != len(arrivals) {
			t.Fatalf("%s completed %d/%d", s.Name(), res.CompletedFlows, len(arrivals))
		}
		return res.FCT.Stats(flow.ClassOther).MeanMs
	}
	srpt := run(sched.NewSRPT())
	fifo := run(sched.NewFIFOMatch())
	if srpt > fifo+1e-9 {
		t.Fatalf("SRPT mean FCT %g > FIFO %g", srpt, fifo)
	}
}

// TestDeterminism: identical configs give identical results.
func TestDeterminism(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 3))
	run := func() *Result {
		gen, err := workload.NewMixed(workload.MixedConfig{
			Topology:          topo,
			Load:              0.7,
			QueryByteFraction: workload.DefaultQueryByteFraction,
			Duration:          1,
			Seed:              99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: sched.NewFastBASRPT(2500), Generator: gen, Duration: 2,
		})
	}
	a, b := run(), run()
	if a.CompletedFlows != b.CompletedFlows || a.DepartedBytes != b.DepartedBytes ||
		a.Decisions != b.Decisions {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestHighLoadSRPTLeavesMoreBacklogThanBASRPT is the paper's headline
// effect at reduced scale: near saturation, fast BASRPT keeps the fabric
// backlog lower (and completes at least as many bytes) than SRPT.
func TestHighLoadBASRPTBeatsSRPTBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	topo := topology.MustNew(topology.Scaled(4, 6))
	run := func(s sched.Scheduler) *Result {
		gen, err := workload.NewMixed(workload.MixedConfig{
			Topology:          topo,
			Load:              0.95,
			QueryByteFraction: workload.DefaultQueryByteFraction,
			Duration:          3,
			Seed:              5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: s, Generator: gen, Duration: 3.5,
		})
	}
	srpt := run(sched.NewSRPT())
	ba := run(sched.NewFastBASRPT(2500))
	if ba.LeftoverBytes >= srpt.LeftoverBytes {
		t.Fatalf("BASRPT leftover %g >= SRPT leftover %g",
			ba.LeftoverBytes, srpt.LeftoverBytes)
	}
	if ba.DepartedBytes < srpt.DepartedBytes {
		t.Fatalf("BASRPT departed %g < SRPT %g", ba.DepartedBytes, srpt.DepartedBytes)
	}
}

// TestBadArrivalReturnsError: a generator violating its contract fails
// the run with the replay context (seed, sim time, event count) instead
// of panicking mid-sweep.
func TestBadArrivalReturnsError(t *testing.T) {
	for name, bad := range map[string]workload.Arrival{
		"self loop":     {Time: 0, Src: 0, Dst: 0, Size: 100, Class: flow.ClassOther},
		"negative size": {Time: 0, Src: 0, Dst: 1, Size: -1, Class: flow.ClassOther},
		"NaN size":      {Time: 0, Src: 0, Dst: 1, Size: math.NaN(), Class: flow.ClassOther},
		"infinite size": {Time: 0, Src: 0, Dst: 1, Size: math.Inf(1), Class: flow.ClassOther},
		"NaN time":      {Time: math.NaN(), Src: 0, Dst: 1, Size: 100, Class: flow.ClassOther},
		"port range":    {Time: 0, Src: 0, Dst: 7, Size: 100, Class: flow.ClassOther},
	} {
		gen := workload.NewSliceGenerator([]workload.Arrival{bad})
		sim, err := New(Config{
			Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen, Duration: 1, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run()
		if err == nil {
			t.Fatalf("%s: bad arrival accepted", name)
		}
		if !strings.Contains(err.Error(), "seed=42") {
			t.Fatalf("%s: error lacks run context: %v", name, err)
		}
	}
}

func BenchmarkFabricSimFastBASRPT(b *testing.B) {
	topo := topology.MustNew(topology.Scaled(2, 4))
	for i := 0; i < b.N; i++ {
		gen, err := workload.NewMixed(workload.MixedConfig{
			Topology:          topo,
			Load:              0.8,
			QueryByteFraction: workload.DefaultQueryByteFraction,
			Duration:          0.2,
			Seed:              uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := New(Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: sched.NewFastBASRPT(2500), Generator: gen, Duration: 0.25,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOutOfOrderGeneratorRejected(t *testing.T) {
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 2, Src: 0, Dst: 1, Size: 100, Class: flow.ClassOther},
		{Time: 1, Src: 1, Dst: 0, Size: 100, Class: flow.ClassOther}, // regression
	})
	sim, err := New(Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen, Duration: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("out-of-order generator accepted")
	}
}

// TestDeepValidationPasses runs a realistic mixed workload with the full
// bookkeeping self-check enabled on every decision.
func TestDeepValidationPasses(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 3))
	gen, err := workload.NewMixed(workload.MixedConfig{
		Topology:          topo,
		Load:              0.8,
		QueryByteFraction: workload.DefaultQueryByteFraction,
		Duration:          0.4,
		Seed:              13,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{
		Hosts:             topo.NumHosts(),
		LinkBps:           topo.HostLinkBps(),
		Scheduler:         sched.NewFastBASRPT(2500),
		Generator:         gen,
		Duration:          0.5,
		ValidateDecisions: true,
		DeepValidateEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows == 0 {
		t.Fatal("no completions under deep validation")
	}
}
