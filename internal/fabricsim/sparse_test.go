package fabricsim

import (
	"testing"

	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// pairCounter passes a generator's arrivals through and records every
// (src, dst) pair it hands out.
type pairCounter struct {
	g     workload.Generator
	pairs map[[2]int]bool
}

func (p *pairCounter) Next() (workload.Arrival, bool) {
	a, ok := p.g.Next()
	if ok {
		p.pairs[[2]int{a.Src, a.Dst}] = true
	}
	return a, ok
}

// TestCentralizedTableStaysSparse runs the centralized engine on 4128
// hosts with deep validation after every decision, which walks every VOQ
// the table holds. The table must hold no more VOQs than the run used
// pairs: deep validation, the scheduler and the index may read the
// table, but only arrivals may grow it.
func TestCentralizedTableStaysSparse(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(344, 12))
	const duration = 0.0001
	gen, err := workload.NewMixed(workload.MixedConfig{
		Topology:          topo,
		Load:              0.5,
		QueryByteFraction: workload.DefaultQueryByteFraction,
		Duration:          duration,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc := &pairCounter{g: gen, pairs: map[[2]int]bool{}}
	sim, err := New(Config{
		Hosts:             topo.NumHosts(),
		LinkBps:           topo.HostLinkBps(),
		Scheduler:         sched.NewFastBASRPT(2500),
		Generator:         pc,
		Duration:          duration,
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
	if res.Decisions == 0 {
		t.Fatal("run took no decisions")
	}
	slots, used := sim.table.NumSlots(), len(pc.pairs)
	t.Logf("%d hosts, %d decisions: %d VOQ slots for %d pairs used", topo.NumHosts(), res.Decisions, slots, used)
	if slots > used {
		t.Fatalf("table holds %d VOQs, the run used %d pairs", slots, used)
	}
}
