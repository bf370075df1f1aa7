package sched

import (
	"fmt"
	"sort"
)

// Options carries the discipline parameters used by the registry
// constructors. Zero values select documented defaults.
type Options struct {
	// V is the BASRPT tradeoff weight (default 2500, the paper's
	// demonstration value).
	V float64
	// Threshold is the backlog threshold for the threshold strategy
	// (default 1e6, i.e. 1MB when sizes are bytes).
	Threshold float64
	// Seed seeds the random scheduler (default 1).
	Seed uint64
	// Rounds bounds the distributed emulation's arbitration rounds
	// (default 0: run to convergence).
	Rounds int
	// NoiseLevel is the size-estimation error of the noisy variant
	// (default 0.25).
	NoiseLevel float64
}

func (o Options) withDefaults() Options {
	if o.V == 0 {
		o.V = 2500
	}
	if o.Threshold == 0 {
		o.Threshold = 1e6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.NoiseLevel == 0 {
		o.NoiseLevel = 0.25
	}
	return o
}

// builders maps registry names to constructors. Names are the stable CLI
// identifiers used by cmd/basrptsim and the benchmark harness.
var builders = map[string]func(Options) Scheduler{
	"srpt":         func(Options) Scheduler { return NewSRPT() },
	"fast-basrpt":  func(o Options) Scheduler { return NewFastBASRPT(o.V) },
	"exact-basrpt": func(o Options) Scheduler { return NewExactBASRPT(o.V) },
	"maxweight":    func(Options) Scheduler { return NewMaxWeight() },
	"fifo":         func(Options) Scheduler { return NewFIFOMatch() },
	"threshold":    func(o Options) Scheduler { return NewThresholdBacklog(o.Threshold) },
	"random":       func(o Options) Scheduler { return NewRandom(o.Seed) },
	"dist-basrpt":  func(o Options) Scheduler { return NewDistributed(o.V, o.Rounds) },
	"noisy-basrpt": func(o Options) Scheduler { return NewNoisyFastBASRPT(o.V, o.NoiseLevel) },
}

// New constructs a scheduler by registry name. Unknown names return an
// error listing the valid ones.
func New(name string, opts Options) (Scheduler, error) {
	build, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (valid: %v)", name, Names())
	}
	return build(opts.withDefaults()), nil
}

// Names returns the sorted registry names.
func Names() []string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
