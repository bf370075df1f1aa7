package core

// Run is the run context threaded through the theory experiment entry
// points: the random seed of the experiment's primary stream. It is a
// struct rather than a bare integer so per-subsystem seeds can be added
// without touching every signature again.
type Run struct {
	// Seed drives the experiment's primary random stream (0 selects 1).
	Seed uint64
}

// SeedRun is the Run for a bare primary seed — the common case.
func SeedRun(seed uint64) Run { return Run{Seed: seed} }

func (r Run) withDefaults() Run {
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}
