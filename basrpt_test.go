package basrpt

import (
	"math"
	"strings"
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// buildBenchTable fills a VOQ table with a deterministic random flow
// population for the scheduler microbenchmarks.
func buildBenchTable(n, flows int) *flow.Table {
	r := stats.NewRNG(7)
	tab := flow.NewTable(n)
	for i := 0; i < flows; i++ {
		size := 1 + math.Floor(r.Float64()*1e6)
		tab.Add(flow.NewFlow(flow.ID(i+1), r.Intn(n), r.Intn(n), flow.ClassOther, size, 0))
	}
	return tab
}

func TestFacadeSchedulers(t *testing.T) {
	for _, s := range []Scheduler{
		NewSRPT(),
		NewFastBASRPT(2500),
		NewExactBASRPT(100),
		NewMaxWeight(),
		NewFIFOMatch(),
		NewThresholdBacklog(1e6),
	} {
		if s.Name() == "" {
			t.Fatal("empty scheduler name")
		}
	}
	names := SchedulerNames()
	if len(names) < 6 {
		t.Fatalf("registry names = %v", names)
	}
	s, err := NewScheduler("srpt", SchedulerOptions{})
	if err != nil || s.Name() != "srpt" {
		t.Fatalf("NewScheduler = (%v, %v)", s, err)
	}
	if _, err := NewScheduler("nope", SchedulerOptions{}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestFacadeTopologyAndDistributions(t *testing.T) {
	topo, err := NewTopology(PaperTopology())
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumHosts() != 144 {
		t.Fatalf("paper hosts = %d", topo.NumHosts())
	}
	r := NewRNG(1)
	ws := WebSearchSizes()
	dm := DataMiningSizes()
	for i := 0; i < 100; i++ {
		if ws.Sample(r) <= 0 || dm.Sample(r) <= 0 {
			t.Fatal("non-positive sample")
		}
	}
	if ws.Mean() <= QueryBytes {
		t.Fatalf("web-search mean %g should dwarf a query", ws.Mean())
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	topo, err := NewTopology(ScaledTopology(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewMixedWorkload(MixedConfig{
		Topology:          topo,
		Load:              0.5,
		QueryByteFraction: DefaultQueryByteFraction,
		Duration:          0.5,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewFabricSim(FabricConfig{
		Hosts:     topo.NumHosts(),
		LinkBps:   topo.HostLinkBps(),
		Scheduler: NewFastBASRPT(DefaultV),
		Generator: gen,
		Duration:  0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows == 0 {
		t.Fatal("no completions")
	}
	if res.FCT.Stats(ClassQuery).Count == 0 {
		t.Fatal("no query FCTs recorded")
	}
}

func TestFacadeSliceWorkloadAndSwitchSim(t *testing.T) {
	gen := NewSliceWorkload([]Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 100, Class: ClassOther},
	})
	if a, ok := gen.Next(); !ok || a.Size != 100 {
		t.Fatalf("slice workload = (%+v, %v)", a, ok)
	}
	sim, err := NewSwitchSim(SwitchConfig{
		N:         2,
		Scheduler: NewSRPT(),
		Arrivals:  NewScriptedArrivals([]FlowArrival{{Slot: 0, Src: 0, Dst: 1, Packets: 2}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	if sim.CompletedFlows() != 1 {
		t.Fatalf("completed = %d", sim.CompletedFlows())
	}
}

func TestFacadeExperimentReexports(t *testing.T) {
	res, err := RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figure 1") {
		t.Fatal("fig1 render wrong")
	}
	if DefaultV != 2500 {
		t.Fatalf("DefaultV = %v", DefaultV)
	}
}

// TestFacadeExperimentPassThroughs drives every experiment re-export at
// minimal scale.
func TestFacadeExperimentPassThroughs(t *testing.T) {
	if res, err := RunTheorem1(3, 0.7, 2000, []float64{4}, 1); err != nil || len(res.Rows) != 1 {
		t.Fatalf("RunTheorem1: %v", err)
	}
	if res, err := RunDTMC(4, 0); err != nil || res.Shortest == nil {
		t.Fatalf("RunDTMC: %v", err)
	}
	if res, err := RunExactVsFast(3, 10, DefaultV, 1); err != nil || res.Trials != 10 {
		t.Fatalf("RunExactVsFast: %v", err)
	}
	if res, err := RunDistributed(4, 10, DefaultV, []int{0}, 1); err != nil || res.Rows[0].Agreement != 1 {
		t.Fatalf("RunDistributed: %v", err)
	}
}
