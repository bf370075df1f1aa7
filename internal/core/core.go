// Package core assembles the substrates into the paper's experiments. The
// fabric experiments all run through one execution unit, RunCell: a
// single fabric simulation of one scheduler at one operating point,
// flattened into named metrics. internal/scenario fans cells across seeds
// and checks hypotheses over them (the scenarios/ specs). The theory
// experiments, which run the slotted switch, the DTMC, or bare scheduling
// decisions instead of the fabric, keep one driver each (RunFig1,
// RunTheorem1, RunDTMC, RunExactVsFast, RunDistributed); cmd/basrptbench
// prints them. DESIGN.md §3 indexes every experiment.
package core

import (
	"fmt"

	"basrpt/internal/topology"
)

// Scale shapes one cell's fabric and horizon. The paper runs 144 hosts
// for 500 simulated seconds; reduced scales preserve the load structure
// (rack locality, query fan-out, per-port utilization) while shrinking
// host count and horizon.
type Scale struct {
	// Racks and HostsPerRack shape the topology (paper: 12 x 12).
	Racks        int
	HostsPerRack int
	// Duration is the simulated horizon in seconds (paper: 500).
	Duration float64
	// WarmupFraction of the horizon is excluded from trend classification
	// (arrival transients). Defaults to 0.2.
	WarmupFraction float64
	// Seed drives every random stream derived from this scale.
	Seed uint64
}

// ScaleMedium is the shape a zero Scale field defaults to: 24 hosts for 4
// simulated seconds.
var ScaleMedium = Scale{Racks: 4, HostsPerRack: 6, Duration: 4, Seed: 1}

// Topology builds the scale's fabric and validates the big-switch
// abstraction. Zero or negative dimensions fail with
// topology.ErrDimension.
func (s Scale) Topology() (*topology.Topology, error) {
	topo, err := topology.New(topology.Scaled(s.Racks, s.HostsPerRack))
	if err != nil {
		return nil, fmt.Errorf("build topology: %w", err)
	}
	if err := topo.ValidateNonBlocking(); err != nil {
		return nil, err
	}
	return topo, nil
}

// primarySeed is the seed of a theory experiment's primary random
// stream: 0 selects 1.
func primarySeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

func (s Scale) withDefaults() Scale {
	if s.Racks == 0 {
		s.Racks = ScaleMedium.Racks
	}
	if s.HostsPerRack == 0 {
		s.HostsPerRack = ScaleMedium.HostsPerRack
	}
	if s.Duration == 0 {
		s.Duration = ScaleMedium.Duration
	}
	if s.WarmupFraction <= 0 || s.WarmupFraction >= 1 {
		s.WarmupFraction = 0.2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// DefaultV is the paper's demonstration value of the tradeoff weight
// (Section V-B: "we just choose V = 2500 for demonstration").
const DefaultV = 2500

// GrowthThreshold is the growth-ratio above which a queue series counts as
// macro-scale growing (see stats.ClassifyTrend). Calibration: a queue that
// ramps linearly from empty scores ~2, one that steadily gains most of its
// average level across the window scores ~0.7, and a stationary queue
// meandering around its level scores near 0 — 0.5 separates the regimes
// with margin on both sides.
const GrowthThreshold = 0.5
