// Distributed implementation study: the paper argues (Section IV-C) that
// fast BASRPT's global flow priorities admit a distributed implementation
// in the style of pFabric. This example runs the request/grant
// (deferred-acceptance) emulation head-to-head against the centralized
// scheduler — first at the decision level, then end-to-end in the fabric
// simulator — and shows the arbitration-round budget's effect.
//
//	go run ./examples/distributed
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
	// Decision-level agreement per arbitration-round budget.
	res, err := basrpt.RunDistributed(8, 300, basrpt.DefaultV, []int{0, 1, 2, 4, 8}, 7)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())

	// End-to-end: same workload through the centralized scheduler and the
	// converged distributed emulation must produce identical fabrics.
	topo, err := basrpt.NewTopology(basrpt.ScaledTopology(2, 4))
	if err != nil {
		return err
	}
	runOnce := func(name string) (*basrpt.FabricResult, error) {
		gen, err := basrpt.NewMixedWorkload(basrpt.MixedConfig{
			Topology:          topo,
			Load:              0.8,
			QueryByteFraction: basrpt.DefaultQueryByteFraction,
			Duration:          1,
			Seed:              21,
		})
		if err != nil {
			return nil, err
		}
		scheduler, err := basrpt.NewScheduler(name, basrpt.SchedulerOptions{V: basrpt.DefaultV})
		if err != nil {
			return nil, err
		}
		sim, err := basrpt.NewFabricSim(basrpt.FabricConfig{
			Hosts:     topo.NumHosts(),
			LinkBps:   topo.HostLinkBps(),
			Scheduler: scheduler,
			Generator: gen,
			Duration:  1,
		})
		if err != nil {
			return nil, err
		}
		return sim.Run()
	}

	central, err := runOnce("fast-basrpt")
	if err != nil {
		return err
	}
	dist, err := runOnce("dist-basrpt")
	if err != nil {
		return err
	}
	fmt.Println("\nend-to-end on the same workload:")
	fmt.Printf("  centralized: %d completions, %.2f Gbps, query avg %.3f ms\n",
		central.CompletedFlows, central.AverageGbps(), central.FCT.Stats(basrpt.ClassQuery).MeanMs)
	fmt.Printf("  distributed: %d completions, %.2f Gbps, query avg %.3f ms\n",
		dist.CompletedFlows, dist.AverageGbps(), dist.FCT.Stats(basrpt.ClassQuery).MeanMs)
	if central.CompletedFlows == dist.CompletedFlows && central.DepartedBytes == dist.DepartedBytes {
		fmt.Println("  -> byte-for-byte identical, as the convergence theorem predicts")
	}
	return nil
}
