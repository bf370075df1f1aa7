package scenario

import (
	"fmt"

	"basrpt/internal/core"
	"basrpt/internal/runner"
	"basrpt/internal/sched"
)

// Options are the runtime knobs of one execution — everything here is
// explicitly OUTSIDE the determinism contract's inputs: findings bytes
// must not depend on any Options field except through forbidden misuse
// (there is none: Parallel only changes scheduling, OnProgress only
// observes).
type Options struct {
	// Parallel is the worker count (0 = GOMAXPROCS). The findings are
	// byte-identical for any value.
	Parallel int
	// OnProgress, when non-nil, receives per-unit lifecycle callbacks
	// (start/done/failed phases) for live output. Callback order
	// is nondeterministic — display and ops endpoints only.
	OnProgress func(runner.Progress)
}

// Tasks builds the runner tasks of the spec's grid in cell order
// (scheduler-major, load-minor). Each task constructs its entire
// simulation inside Run, so tasks are safe to fan across workers.
func (s *Spec) Tasks() []runner.Task {
	var tasks []runner.Task
	for _, sc := range s.schedulerCells() {
		sc := sc
		for _, load := range s.Loads {
			load := load
			tasks = append(tasks, runner.Task{
				Name: s.cellName(sc, load),
				Run: func(seed uint64) (runner.Sample, error) {
					cell := core.Cell{
						Scale: core.Scale{
							Racks:        s.Topology.Racks,
							HostsPerRack: s.Topology.HostsPerRack,
							Duration:     s.DurationS,
							Seed:         seed,
						},
						Scheduler: sc.Name,
						Options: sched.Options{
							V:          sc.V,
							Threshold:  sc.Threshold,
							NoiseLevel: sc.NoiseLevel,
							Rounds:     sc.Rounds,
						},
						Load:          load,
						QueryFraction: s.Workload.QueryByteFraction,
						Incast:        s.Workload.incast(),
					}
					if s.Faults != nil {
						cell.Faults = &core.CellFaults{
							LinkFaults: s.Faults.LinkFaults,
							Outages:    s.Faults.Outages,
							Seed:       s.Faults.Seed,
						}
					}
					return core.RunCell(cell)
				},
			})
		}
	}
	return tasks
}

// Execute runs the scenario's full grid across the worker pool and folds
// the aggregate into findings. A failing cell fails the whole execution:
// scenario runs back regression gates, so partial results are worthless
// there — rerun the named seed single-cell to debug.
func Execute(spec *Spec, opt Options) (*Findings, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	agg, err := runner.Run(runner.Config{
		Seeds:      spec.Seeds.Count,
		Parallel:   opt.Parallel,
		RootSeed:   spec.Seeds.Root,
		OnProgress: opt.OnProgress,
	}, spec.Tasks())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	return newFindings(spec, agg)
}
