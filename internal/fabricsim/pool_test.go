package fabricsim

import (
	"testing"

	"basrpt/internal/faults"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
)

// TestFlowPoolEquivalence: recycling completed flows through the free list
// must not change any observable output — the pooled arm and a non-pooled
// arm (poolOn cleared after New) of the same fixed-seed run produce
// identical decisions, completions, byte accounting, and sample series,
// under continuous decision validation and periodic deep table validation.
func TestFlowPoolEquivalence(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 3))
	run := func(pool bool) *Result {
		sim, err := New(Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: sched.NewFastBASRPT(2500),
			Generator: mixedGen(t, topo, 0.85, 1.8, 11),
			Duration:  2, ValidateDecisions: true, DeepValidateEvery: 7,
			Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.poolOn = pool
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pooled, baseline := run(true), run(false)
	if pooled.Obs.Counter("flow.pool_reuses") == 0 {
		t.Fatal("pooled arm never reused a flow")
	}
	sameResults(t, pooled, baseline)
}

// TestFlowPoolAutoDisabledUnderFaults: an OutageFallback retains decision
// pointers across completions, so configuring a fault injector must switch
// flow recycling off.
func TestFlowPoolAutoDisabledUnderFaults(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 2))
	schedule, err := faults.Generate(faults.Params{
		Seed: 21, Horizon: 2, Ports: topo.NumHosts(), LinkFaults: 1, Outages: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
		Scheduler: sched.NewFastBASRPT(2500),
		Generator: mixedGen(t, topo, 0.7, 1, 5),
		Duration:  1, Seed: 5,
		Faults: faults.NewInjector(schedule),
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.poolOn {
		t.Fatal("flow pool stayed on despite a configured fault injector")
	}

	cfg.Faults = nil
	cfg.Generator = mixedGen(t, topo, 0.7, 1, 5)
	sim, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.poolOn {
		t.Fatal("flow pool off by default without faults")
	}
}
