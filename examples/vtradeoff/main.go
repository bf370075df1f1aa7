// V tradeoff study: sweep the BASRPT weight V at near-saturating load and
// print a Figures 7/8 style table — larger V buys lower query FCT at a
// nearly flat throughput and queue level. The multi-seed claim is checked
// by scenarios/e6-v-sweep.
//
//	go run ./examples/vtradeoff
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
	fmt.Printf("%-6s %-8s %-14s %-8s %-14s %-14s %-11s %s\n",
		"V", "Gbps", "stable queue", "trend", "query avg ms", "query 99 ms", "bg avg ms", "bg 99 ms")
	for _, v := range []float64{500, 1000, 2500, 5000, 10000} {
		gen, err := basrpt.NewMixedWorkload(basrpt.MixedConfig{
			Topology:          topo,
			Load:              0.95,
			QueryByteFraction: basrpt.DefaultQueryByteFraction,
			Duration:          2,
			Seed:              1,
		})
		if err != nil {
			return err
		}
		sim, err := basrpt.NewFabricSim(basrpt.FabricConfig{
			Hosts:     topo.NumHosts(),
			LinkBps:   topo.HostLinkBps(),
			Scheduler: basrpt.NewFastBASRPT(v),
			Generator: gen,
			Duration:  2,
		})
		if err != nil {
			return err
		}
		res, err := sim.Run()
		if err != nil {
			return err
		}
		q, bg := res.FCT.Stats(basrpt.ClassQuery), res.FCT.Stats(basrpt.ClassBackground)
		fmt.Printf("%-6g %-8.1f %-14s %-8s %-14.4f %-14.4f %-11.3f %.3f\n",
			v, res.AverageGbps(),
			fmt.Sprintf("%.1f MB", res.MaxPortSeries.TailMean(0.3)/1e6),
			res.MaxPortSeries.Trend(basrpt.GrowthThreshold).Verdict,
			q.MeanMs, q.P99Ms, bg.MeanMs, bg.P99Ms)
	}

	// The theory side of the same knob: Theorem 1 constants on the slotted
	// switch — the delay-gap bound shrinks as 1/V while the backlog bound
	// grows as O(V).
	fmt.Println()
	theorem, err := basrpt.RunTheorem1(4, 0.85, 50000, []float64{1, 8, 64, 512}, 7)
	if err != nil {
		return err
	}
	fmt.Print(theorem.Render())
	return nil
}
