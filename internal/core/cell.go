package core

import (
	"fmt"
	"math"

	"basrpt/internal/fabricsim"
	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/runner"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// The incast pattern's fixed shape: IncastFanout synchronized responses
// per partition/aggregate job, IncastJobsPerSecond jobs fabric-wide. The
// fanout shrinks to hosts−1 on fabrics too small for it.
const (
	IncastJobsPerSecond = 400
	IncastFanout        = 8
)

// RecoveryFactor defines "recovered" for fault cells: the fabric backlog
// is back within RecoveryFactor × its pre-fault mean.
const RecoveryFactor = 2

// Cell is one point of a scenario grid: a single fabric simulation of one
// scheduler at one operating point, optionally under fault injection. It
// is the execution unit behind internal/scenario — every scenario cell
// maps to exactly one Cell per replicate seed — but it is equally usable
// for ad-hoc single runs.
type Cell struct {
	// Scale shapes the topology and horizon; Scale.Seed drives the
	// workload stream (and the scheduler's own RNG when it has one).
	Scale Scale
	// Scheduler is the registry name (sched.Names) of the discipline.
	Scheduler string
	// Options carries the discipline parameters. Options.Seed, when 0, is
	// set to the replicate seed so seeded disciplines vary per replicate.
	Options sched.Options
	// Load is the per-port offered load in (0, 1); for incast cells, the
	// load of the rack-local background traffic under the responses.
	Load float64
	// QueryFraction is the query byte share; 0 selects the harness
	// default. Incast cells take none.
	QueryFraction float64
	// Incast replaces the mixed query/background stream with the
	// partition/aggregate pattern (workload.NewIncast): IncastFanout
	// 20KB responses per job converge on one aggregator, at
	// IncastJobsPerSecond jobs. The responses are the query class.
	Incast bool
	// Faults, when non-nil, injects a deterministic fault schedule and
	// adds the resilience metrics (recovery time, held decisions) to the
	// sample.
	Faults *CellFaults
}

// CellFaults configures a Cell's fault schedule, mirroring the E13
// resilience experiment: LinkFaults access-link windows (hard-down or
// degraded) plus Outages scheduler outages, all inside the middle 80% of
// the horizon.
type CellFaults struct {
	// LinkFaults and Outages count the schedule's fault windows.
	LinkFaults int
	Outages    int
	// Seed draws the schedule; 0 derives it from the cell's workload seed
	// so a multi-seed sweep varies the schedule with the workload.
	Seed uint64
}

// RunCell executes one cell and flattens the run into named metrics: the
// Table I FCT columns (query_avg_ms, query_p99_ms, bg_avg_ms, bg_p99_ms),
// throughput (gbps, departed_mb), queue behavior (maxport_tail_mb,
// queue_growth), flow accounting (completed_flows, leftover_flows), and —
// for fault cells — recovered, recovery_s (only when recovered),
// decisions_held, prefault_mean_mb and truncated. The sample is a pure
// function of the cell: identical cells produce identical samples on any
// machine.
func RunCell(c Cell) (runner.Sample, error) {
	scale := c.Scale.withDefaults()
	if c.Load <= 0 || c.Load >= 1 {
		return nil, fmt.Errorf("cell: load %g outside (0, 1)", c.Load)
	}
	if c.Incast && c.QueryFraction != 0 {
		return nil, fmt.Errorf("cell: incast cells take no query fraction (got %g)", c.QueryFraction)
	}
	if c.Options.NoiseLevel < 0 {
		return nil, fmt.Errorf("cell: negative noise level %g", c.Options.NoiseLevel)
	}
	if c.Options.Seed == 0 {
		c.Options.Seed = scale.Seed
	}
	scheduler, err := sched.New(c.Scheduler, c.Options)
	if err != nil {
		return nil, fmt.Errorf("cell: %w", err)
	}
	topo, err := scale.Topology()
	if err != nil {
		return nil, err
	}
	gen, err := c.generator(topo, scale)
	if err != nil {
		return nil, fmt.Errorf("cell: build workload: %w", err)
	}
	cfg := fabricsim.Config{
		Hosts:     topo.NumHosts(),
		LinkBps:   topo.HostLinkBps(),
		Scheduler: scheduler,
		Generator: gen,
		Duration:  scale.Duration,
		Seed:      scale.Seed,
	}
	schedule, err := c.faultSchedule(topo.NumHosts(), scale)
	if err != nil {
		return nil, err
	}
	if schedule != nil {
		cfg.Faults = faults.NewInjector(schedule)
		// A generous divergence bound: armed so a pathological
		// interaction truncates instead of running blind, but far above
		// any stable run's backlog.
		cfg.Watchdog = &fabricsim.Watchdog{
			MaxBacklogBytes: float64(topo.NumHosts()) * topo.HostLinkBps() / 8 * scale.Duration,
		}
	}
	sim, err := fabricsim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	sample := fabricSample(res, scale)
	if schedule != nil {
		addFaultMetrics(sample, res, schedule)
	}
	return sample, nil
}

// faultSchedule draws the cell's fault schedule, or returns nil for a
// cell without faults. A zero CellFaults.Seed draws it from the workload
// seed, so the schedule varies with the replicate.
func (c Cell) faultSchedule(ports int, scale Scale) (*faults.Schedule, error) {
	if c.Faults == nil {
		return nil, nil
	}
	seed := c.Faults.Seed
	if seed == 0 {
		seed = scale.Seed
	}
	schedule, err := faults.Generate(faults.Params{
		Seed:       seed,
		Horizon:    scale.Duration,
		Ports:      ports,
		LinkFaults: c.Faults.LinkFaults,
		Outages:    c.Faults.Outages,
	})
	if err != nil {
		return nil, fmt.Errorf("cell: generate fault schedule: %w", err)
	}
	return schedule, nil
}

// generator builds the cell's arrival stream. It depends only on the
// topology, the scale and the operating point, never on the scheduler, so
// every scheduler of a replicate sees the identical stream.
func (c Cell) generator(topo *topology.Topology, scale Scale) (workload.Generator, error) {
	if c.Incast {
		return workload.NewIncast(workload.IncastConfig{
			Topology:       topo,
			JobsPerSecond:  IncastJobsPerSecond,
			Fanout:         min(IncastFanout, topo.NumHosts()-1),
			BackgroundLoad: c.Load,
			Duration:       scale.Duration,
			Seed:           scale.Seed,
		})
	}
	qf := c.QueryFraction
	if qf == 0 {
		qf = workload.DefaultQueryByteFraction
	}
	return workload.NewMixed(workload.MixedConfig{
		Topology:          topo,
		Load:              c.Load,
		QueryByteFraction: qf,
		Duration:          scale.Duration,
		Seed:              scale.Seed,
	})
}

// fabricSample flattens the headline quantities of one fabric run — the
// Table I FCT columns, throughput, and queue stability — into named
// metrics.
func fabricSample(res *fabricsim.Result, scale Scale) runner.Sample {
	qAvg, qP99 := fctRow(res, flow.ClassQuery)
	bAvg, bP99 := fctRow(res, flow.ClassBackground)
	return runner.Sample{
		"query_avg_ms":    qAvg,
		"query_p99_ms":    qP99,
		"bg_avg_ms":       bAvg,
		"bg_p99_ms":       bP99,
		"gbps":            res.AverageGbps(),
		"departed_mb":     res.DepartedBytes / 1e6,
		"maxport_tail_mb": res.MaxPortSeries.TailMean(0.3) / 1e6,
		"queue_growth":    trendAfterWarmup(&res.MaxPortSeries, scale).GrowthRatio,
		"completed_flows": float64(res.CompletedFlows),
		"leftover_flows":  float64(res.LeftoverFlows),
	}
}

// fctRow extracts the (avg, 99p) pair in ms for a class.
func fctRow(r *fabricsim.Result, class flow.Class) (avg, p99 float64) {
	cs := r.FCT.Stats(class)
	return cs.MeanMs, cs.P99Ms
}

// trendAfterWarmup classifies a queue series ignoring the warmup prefix.
func trendAfterWarmup(s *metrics.Series, scale Scale) stats.TrendReport {
	scale = scale.withDefaults()
	start := int(float64(s.Len()) * scale.WarmupFraction)
	if start >= s.Len() {
		return stats.TrendReport{Verdict: stats.TrendStable}
	}
	return stats.ClassifyTrend(s.Values[start:], GrowthThreshold)
}

// addFaultMetrics extends a fault cell's sample with the E13 resilience
// quantities. Recovery is only observable when the backlog returned
// inside the horizon; unrecovered replicates report the indicator instead
// of poisoning the mean with -1.
func addFaultMetrics(sample runner.Sample, res *fabricsim.Result, schedule *faults.Schedule) {
	preMean, recovery := recoveryTime(&res.TotalBacklogSeries, schedule)
	recovered := 0.0
	if recovery >= 0 {
		recovered = 1
		sample["recovery_s"] = recovery
	}
	sample["recovered"] = recovered
	sample["prefault_mean_mb"] = preMean / 1e6
	sample["decisions_held"] = float64(res.Faults.DecisionsHeld)
	truncated := 0.0
	if res.Truncated() {
		truncated = 1
	}
	sample["truncated"] = truncated
}

// recoveryTime computes the recovery metric from a backlog series: the
// pre-fault mean (samples before the first fault window opens) and the
// delay after the last fault window closes until the backlog first drops
// back within RecoveryFactor × that mean (−1 if it never does).
func recoveryTime(series *metrics.Series, s *faults.Schedule) (preMean, recovery float64) {
	firstStart := s.FirstFaultStart()
	lastEnd := s.LastFaultEnd()
	if math.IsInf(firstStart, 1) {
		return 0, 0 // no fault windows: nothing to recover from
	}
	var sum float64
	var n int
	for i, t := range series.Times {
		if t >= firstStart {
			break
		}
		sum += series.Values[i]
		n++
	}
	if n > 0 {
		preMean = sum / float64(n)
	}
	for i, t := range series.Times {
		if t < lastEnd {
			continue
		}
		if series.Values[i] <= RecoveryFactor*preMean {
			return preMean, t - lastEnd
		}
	}
	return preMean, -1
}
