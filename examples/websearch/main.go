// Web-search load sweep: compare SRPT and fast BASRPT on the paper's
// web-search workload across loads, printing a Figure 6 style table —
// near-identical FCTs at low load, and the query-FCT price fast BASRPT
// pays for stability as load nears saturation. The multi-seed claims are
// checked by scenarios/e5-load-sweep (the sweep) and
// scenarios/e3-fct-tradeoff (the 95% point); the queue divergence itself
// needs the long-horizon stability showcase (EXPERIMENTS.md).
//
//	go run ./examples/websearch
package main

import (
	"fmt"
	"log"

	"basrpt"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	topo, err := basrpt.NewTopology(basrpt.ScaledTopology(2, 4))
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-22s %-22s %-18s %s\n", "load", "query avg ms srpt/fast", "query 99 ms srpt/fast", "Gbps srpt/fast", "queue srpt/fast")
	for _, load := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
		srpt, err := simulate(topo, basrpt.NewSRPT(), load)
		if err != nil {
			return err
		}
		fast, err := simulate(topo, basrpt.NewFastBASRPT(basrpt.DefaultV), load)
		if err != nil {
			return err
		}
		sq, fq := srpt.FCT.Stats(basrpt.ClassQuery), fast.FCT.Stats(basrpt.ClassQuery)
		fmt.Printf("%-6s %-22s %-22s %-18s %s/%s\n",
			fmt.Sprintf("%.0f%%", load*100),
			fmt.Sprintf("%.4f/%.4f", sq.MeanMs, fq.MeanMs),
			fmt.Sprintf("%.4f/%.4f", sq.P99Ms, fq.P99Ms),
			fmt.Sprintf("%.1f/%.1f", srpt.AverageGbps(), fast.AverageGbps()),
			srpt.MaxPortSeries.Trend(basrpt.GrowthThreshold).Verdict,
			fast.MaxPortSeries.Trend(basrpt.GrowthThreshold).Verdict)
	}
	return nil
}

// simulate runs one scheduler for 2 simulated seconds. The arrival stream
// depends only on the topology, load and seed, so both schedulers of a
// load point see identical traffic.
func simulate(topo *basrpt.Topology, s basrpt.Scheduler, load float64) (*basrpt.FabricResult, error) {
	gen, err := basrpt.NewMixedWorkload(basrpt.MixedConfig{
		Topology:          topo,
		Load:              load,
		QueryByteFraction: basrpt.DefaultQueryByteFraction,
		Duration:          2,
		Seed:              1,
	})
	if err != nil {
		return nil, err
	}
	sim, err := basrpt.NewFabricSim(basrpt.FabricConfig{
		Hosts:     topo.NumHosts(),
		LinkBps:   topo.HostLinkBps(),
		Scheduler: s,
		Generator: gen,
		Duration:  2,
	})
	if err != nil {
		return nil, err
	}
	return sim.Run()
}
