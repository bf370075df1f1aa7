package fabricsim

import (
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// peakProbe passes a generator's arrivals through and records the most
// VOQs the table held as non-empty plus dirty. The centralized engine
// pulls the next arrival right after adding the previous one, so every
// pull samples the table just after an Add, and only Add makes the table
// hold more VOQs.
type peakProbe struct {
	g     workload.Generator
	table *flow.Table
	peak  int
}

func (p *peakProbe) Next() (workload.Arrival, bool) {
	if p.table != nil {
		p.peak = max(p.peak, p.table.NumNonEmpty()+p.table.NumDirty())
	}
	return p.g.Next()
}

// runProbed runs fast BASRPT on the centralized engine over topo and
// returns the slots its table handed out and the probed peak of
// non-empty plus dirty VOQs. A table that recycles released slots hands
// out no more than that peak.
func runProbed(t *testing.T, topo *topology.Topology, load, duration float64, deepEvery int64) (slots, peak int) {
	t.Helper()
	gen, err := workload.NewMixed(workload.MixedConfig{
		Topology:          topo,
		Load:              load,
		QueryByteFraction: workload.DefaultQueryByteFraction,
		Duration:          duration,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := &peakProbe{g: gen}
	sim, err := New(Config{
		Hosts:             topo.NumHosts(),
		LinkBps:           topo.HostLinkBps(),
		Scheduler:         sched.NewFastBASRPT(2500),
		Generator:         probe,
		Duration:          duration,
		ValidateDecisions: true,
		DeepValidateEvery: deepEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe.table = sim.table
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions == 0 {
		t.Fatal("run took no decisions")
	}
	slots = sim.table.NumSlots()
	t.Logf("%d hosts, %d decisions: %d VOQ slots, peak %d non-empty plus dirty",
		topo.NumHosts(), res.Decisions, slots, probe.peak)
	if slots > probe.peak {
		t.Fatalf("table handed out %d slots, but at most %d VOQs were non-empty or dirty at once",
			slots, probe.peak)
	}
	return slots, probe.peak
}

// TestCentralizedTableStaysSparse runs the centralized engine on 4128
// hosts with deep validation after every decision, which walks every VOQ
// the table holds. Deep validation, the scheduler and the index may read
// the table, but only arrivals may make it hold more VOQs, and emptied
// VOQs must give their slots back.
func TestCentralizedTableStaysSparse(t *testing.T) {
	runProbed(t, topology.MustNew(topology.Scaled(344, 12)), 0.5, 0.0001, 1)
}

// TestPaperFabricTableRecyclesSlots runs the paper's 144-host fabric at
// load 0.8 for 50 ms. Over that horizon the run uses over 17k of the
// 20,736 pairs, but only a few hundred VOQs are non-empty or dirty at
// once, so the table must hold about that many.
func TestPaperFabricTableRecyclesSlots(t *testing.T) {
	if slots, _ := runProbed(t, topology.MustNew(topology.Scaled(12, 12)), 0.8, 0.05, 0); slots > 1000 {
		t.Fatalf("table handed out %d slots, want at most 1000", slots)
	}
}
