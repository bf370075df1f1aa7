package workload

import (
	"fmt"
	"sort"

	"basrpt/internal/eventq"
	"basrpt/internal/flow"
	"basrpt/internal/stats"
	"basrpt/internal/topology"
)

// IncastConfig parameterizes the partition/aggregate traffic pattern the
// paper's introduction motivates: "a soft real-time application aggregates
// responses from many back-end servers to produce results". Each job picks
// an aggregator host, fans a request out to Fanout random backends, and
// all Fanout responses (fixed-size, like the paper's 20KB queries) arrive
// back at the aggregator at the job instant — the classic synchronized
// incast pattern, and the hardest case for the aggregator's egress port.
// Every response is QueryBytes.
type IncastConfig struct {
	// Topology places hosts and fixes the port rate.
	Topology *topology.Topology
	// JobsPerSecond is the fabric-wide partition/aggregate job rate.
	JobsPerSecond float64
	// Fanout is the number of backends per job (must fit the fabric).
	Fanout int
	// BackgroundLoad, when positive, adds the usual rack-local background
	// traffic at that per-port utilization; it must lie in [0, 1).
	BackgroundLoad float64
	// BackgroundSizes defaults to WebSearchBytes().
	BackgroundSizes stats.Sampler
	// Duration is the generation horizon in seconds.
	Duration float64
	// Seed makes the stream reproducible.
	Seed uint64
}

// Incast generates partition/aggregate jobs plus optional background
// traffic, emitting arrivals in global time order.
type Incast struct {
	cfg  IncastConfig
	topo *topology.Topology
	rng  *stats.RNG

	queue eventq.Queue[incastEvent]
	bg    *Mixed // nil when BackgroundLoad == 0

	pendingBg    Arrival
	hasPendingBg bool
}

var _ Generator = (*Incast)(nil)

// QueueHighWater returns the peak pending-event count across the incast
// calendar and the background generator's (see eventq.Queue.HighWater).
func (g *Incast) QueueHighWater() int {
	hw := g.queue.HighWater()
	if g.bg != nil {
		if bg := g.bg.QueueHighWater(); bg > hw {
			hw = bg
		}
	}
	return hw
}

// incastEvent is one entry of the incast calendar: a job tick, or an
// expanded response waiting its turn.
type incastEvent struct {
	job bool
	a   Arrival // the response when !job
}

// NewIncast validates the configuration and builds the generator.
func NewIncast(cfg IncastConfig) (*Incast, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrBadConfig)
	}
	if !positiveFinite(cfg.JobsPerSecond) {
		return nil, fmt.Errorf("%w: job rate %g", ErrBadConfig, cfg.JobsPerSecond)
	}
	if !(cfg.BackgroundLoad >= 0 && cfg.BackgroundLoad < 1) {
		return nil, fmt.Errorf("%w: background load %g outside [0, 1)", ErrBadConfig, cfg.BackgroundLoad)
	}
	if cfg.Fanout < 1 || cfg.Fanout >= cfg.Topology.NumHosts() {
		return nil, fmt.Errorf("%w: fanout %d outside [1, hosts)", ErrBadConfig, cfg.Fanout)
	}
	if !positiveFinite(cfg.Duration) {
		return nil, fmt.Errorf("%w: duration %g", ErrBadConfig, cfg.Duration)
	}
	if cfg.Seed == 0 {
		// Seed 0 used to silently alias to 1, making two nominally distinct
		// seeds generate identical streams. Reject it instead.
		return nil, fmt.Errorf("%w: seed must be nonzero", ErrBadConfig)
	}
	g := &Incast{
		cfg:  cfg,
		topo: cfg.Topology,
		rng:  stats.NewRNG(cfg.Seed),
	}
	if cfg.BackgroundLoad > 0 {
		bgSeed := g.rng.Uint64()
		if bgSeed == 0 {
			bgSeed = 1 // NewMixed rejects 0; any fixed nonzero stand-in is fine
		}
		bg, err := NewMixed(MixedConfig{
			Topology:          cfg.Topology,
			Load:              cfg.BackgroundLoad,
			QueryByteFraction: 0, // incast jobs replace the query class
			BackgroundSizes:   cfg.BackgroundSizes,
			Duration:          cfg.Duration,
			Seed:              bgSeed,
		})
		if err != nil {
			return nil, fmt.Errorf("incast background: %w", err)
		}
		g.bg = bg
		g.pendingBg, g.hasPendingBg = bg.Next()
	}
	// Prime the first job.
	g.queue.Schedule(g.rng.Exp(cfg.JobsPerSecond), incastEvent{job: true})
	return g, nil
}

// Next merges incast responses and background arrivals in time order.
func (g *Incast) Next() (Arrival, bool) {
	for {
		jobTime, haveJob := g.queue.PeekTime()
		switch {
		case g.hasPendingBg && (!haveJob || g.pendingBg.Time <= jobTime):
			a := g.pendingBg
			g.pendingBg, g.hasPendingBg = g.bg.Next()
			return a, true
		case haveJob && jobTime <= g.cfg.Duration:
			ev, t, _ := g.queue.Pop()
			if !ev.job {
				return ev.a, true
			}
			g.expandJob(t)
			g.queue.Schedule(t+g.rng.Exp(g.cfg.JobsPerSecond), incastEvent{job: true})
		default:
			return Arrival{}, false
		}
	}
}

// expandJob schedules the job's Fanout responses as individual arrivals
// at the job instant t (Next only pops jobs at or before Duration).
func (g *Incast) expandJob(t float64) {
	aggregator := g.rng.Intn(g.topo.NumHosts())
	// Sample Fanout distinct backends other than the aggregator.
	for _, b := range g.sampleBackends(aggregator) {
		g.queue.Schedule(t, incastEvent{a: Arrival{
			Time:  t,
			Src:   b,
			Dst:   aggregator,
			Size:  QueryBytes,
			Class: flow.ClassQuery,
		}})
	}
}

// sampleBackends draws Fanout distinct hosts excluding the aggregator,
// deterministically given the RNG state.
func (g *Incast) sampleBackends(aggregator int) []int {
	n := g.topo.NumHosts()
	k := g.cfg.Fanout
	picked := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		h := g.rng.Intn(n - 1)
		if h >= aggregator {
			h++
		}
		if !picked[h] {
			picked[h] = true
			out = append(out, h)
		}
	}
	sort.Ints(out)
	return out
}
