package workload

import (
	"errors"
	"fmt"

	"basrpt/internal/eventq"
	"basrpt/internal/flow"
	"basrpt/internal/stats"
	"basrpt/internal/topology"
)

// Arrival is one generated flow arrival.
type Arrival struct {
	Time  float64 // seconds
	Src   int
	Dst   int
	Size  float64 // bytes
	Class flow.Class
}

// Generator yields flow arrivals in non-decreasing time order.
type Generator interface {
	// Next returns the next arrival; ok is false when the stream is
	// exhausted.
	Next() (a Arrival, ok bool)
}

// SliceGenerator replays a fixed arrival list — the deterministic input
// used by the Figure 1 example and by tests.
type SliceGenerator struct {
	arrivals []Arrival
	pos      int
}

var _ Generator = (*SliceGenerator)(nil)

// NewSliceGenerator copies arrivals (assumed time-sorted) into a generator.
func NewSliceGenerator(arrivals []Arrival) *SliceGenerator {
	cp := make([]Arrival, len(arrivals))
	copy(cp, arrivals)
	return &SliceGenerator{arrivals: cp}
}

// Next replays the next arrival.
func (g *SliceGenerator) Next() (Arrival, bool) {
	if g.pos >= len(g.arrivals) {
		return Arrival{}, false
	}
	a := g.arrivals[g.pos]
	g.pos++
	return a, true
}

// MixedConfig parameterizes the paper's query+background traffic mix.
type MixedConfig struct {
	// Topology places hosts into racks and fixes the port link rate.
	Topology *topology.Topology
	// Load is the target utilization of each ingress/egress access link in
	// (0, 1); the paper sweeps 0.1–0.8 and stresses stability near 0.95.
	Load float64
	// QueryByteFraction is the share of each host's offered bytes carried
	// by 20KB query flows; the remainder is rack-local background traffic.
	// Must be in [0, 1]; 0 disables queries, 1 disables background flows.
	// The paper does not publish the split; experiment configurations use
	// DefaultQueryByteFraction unless stated otherwise.
	QueryByteFraction float64
	// BackgroundSizes samples background flow sizes in bytes; defaults to
	// WebSearchBytes(), the distribution the paper cites.
	BackgroundSizes stats.Sampler
	// Duration is the generation horizon in seconds.
	Duration float64
	// Seed makes the stream reproducible.
	Seed uint64
	// SrcLo and SrcHi restrict the generated sources to hosts in
	// [SrcLo, SrcHi); both zero means every host. Destination draws are
	// unaffected (queries still fan out fabric-wide, background stays
	// rack-local). The sharded simulator gives each rack cell its own
	// Mixed restricted to the rack's hosts with a rack-derived seed, so
	// the union of per-rack streams is fixed by the root seed alone and
	// independent of how racks are grouped into shards.
	SrcLo int
	SrcHi int
}

// DefaultQueryByteFraction is the query/background byte split used by the
// experiment harness when a run does not specify one. The paper does not
// publish the split; queries being "small but frequent" motivates 10%.
const DefaultQueryByteFraction = 0.1

func (c MixedConfig) withDefaults() MixedConfig {
	if c.BackgroundSizes == nil {
		c.BackgroundSizes = WebSearchBytes()
	}
	return c
}

// ErrBadConfig reports an invalid workload configuration.
var ErrBadConfig = errors.New("workload: invalid configuration")

// Mixed generates the two-class traffic of Section V-A. Each host runs two
// independent Poisson processes: queries (fixed 20KB, destination uniform
// over all other hosts) and background flows (heavy-tailed sizes,
// destination uniform within the source's rack). Per-class rates are
// calibrated so each host offers Load × link capacity in expectation; by
// symmetry of the destination choices, egress ports see the same load.
type Mixed struct {
	cfg      MixedConfig
	topo     *topology.Topology
	rng      *stats.RNG
	queue    eventq.Queue[streamEvent]
	queryGap float64 // mean seconds between queries per host (0: disabled)
	bgGap    float64 // mean seconds between background flows per host
	srcLo    int     // generated sources span [srcLo, srcHi)
	srcHi    int
}

var _ Generator = (*Mixed)(nil)

// QueueHighWater returns the event calendar's peak pending-event count
// (see eventq.Queue.HighWater); the fabric simulator snapshots it into the
// observability registry at the end of a run.
func (m *Mixed) QueueHighWater() int { return m.queue.HighWater() }

type streamEvent struct {
	host  int
	class flow.Class
}

// NewMixed validates the configuration and builds the generator.
func NewMixed(cfg MixedConfig) (*Mixed, error) {
	cfg = cfg.withDefaults()
	if cfg.Topology == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrBadConfig)
	}
	if cfg.Load <= 0 || cfg.Load >= 1 {
		return nil, fmt.Errorf("%w: load %g outside (0, 1)", ErrBadConfig, cfg.Load)
	}
	if cfg.QueryByteFraction < 0 || cfg.QueryByteFraction > 1 {
		return nil, fmt.Errorf("%w: query byte fraction %g outside [0, 1]", ErrBadConfig, cfg.QueryByteFraction)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: duration %g <= 0", ErrBadConfig, cfg.Duration)
	}
	if cfg.Topology.Config().HostsPerRack < 2 && cfg.QueryByteFraction < 1 {
		return nil, fmt.Errorf("%w: background flows need at least 2 hosts per rack", ErrBadConfig)
	}
	if cfg.Topology.NumHosts() < 2 {
		return nil, fmt.Errorf("%w: need at least 2 hosts", ErrBadConfig)
	}
	if cfg.Seed == 0 {
		// Seed 0 used to silently alias to 1, making two nominally distinct
		// seeds generate identical streams. Reject it instead.
		return nil, fmt.Errorf("%w: seed must be nonzero", ErrBadConfig)
	}
	if cfg.SrcLo == 0 && cfg.SrcHi == 0 {
		cfg.SrcHi = cfg.Topology.NumHosts()
	}
	if cfg.SrcLo < 0 || cfg.SrcHi > cfg.Topology.NumHosts() || cfg.SrcLo >= cfg.SrcHi {
		return nil, fmt.Errorf("%w: source range [%d, %d) outside [0, %d)",
			ErrBadConfig, cfg.SrcLo, cfg.SrcHi, cfg.Topology.NumHosts())
	}

	m := &Mixed{
		cfg:   cfg,
		topo:  cfg.Topology,
		rng:   stats.NewRNG(cfg.Seed),
		srcLo: cfg.SrcLo,
		srcHi: cfg.SrcHi,
	}

	// Bytes per second each host should offer.
	capacityBps := cfg.Topology.HostLinkBps() / 8 // bytes/s
	offered := cfg.Load * capacityBps

	queryBytes := offered * cfg.QueryByteFraction
	bgBytes := offered - queryBytes
	if queryBytes > 0 {
		rate := queryBytes / QueryBytes // query flows per second per host
		m.queryGap = 1 / rate
	}
	if bgBytes > 0 {
		rate := bgBytes / cfg.BackgroundSizes.Mean()
		m.bgGap = 1 / rate
	}

	// Prime one pending event per active stream per in-range host. At most
	// every stream is pending at once, so reserving that population keeps
	// the calendar allocation-free for the rest of the run.
	m.queue.Reserve(2 * (m.srcHi - m.srcLo))
	for host := m.srcLo; host < m.srcHi; host++ {
		if m.queryGap > 0 {
			m.queue.Schedule(m.rng.Exp(1/m.queryGap), streamEvent{host: host, class: flow.ClassQuery})
		}
		if m.bgGap > 0 {
			m.queue.Schedule(m.rng.Exp(1/m.bgGap), streamEvent{host: host, class: flow.ClassBackground})
		}
	}
	return m, nil
}

// Next pops the earliest pending arrival, draws its destination and size,
// and schedules the stream's next arrival.
func (m *Mixed) Next() (Arrival, bool) {
	se, t, ok := m.queue.Pop()
	if !ok || t > m.cfg.Duration {
		return Arrival{}, false
	}
	a := Arrival{Time: t, Src: se.host, Class: se.class}
	if se.class == flow.ClassQuery {
		a.Dst = m.pickRemoteUniform(se.host)
		a.Size = QueryBytes
		m.queue.Schedule(t+m.rng.Exp(1/m.queryGap), se)
	} else {
		a.Dst = m.pickRackLocal(se.host)
		a.Size = m.cfg.BackgroundSizes.Sample(m.rng)
		m.queue.Schedule(t+m.rng.Exp(1/m.bgGap), se)
	}
	return a, true
}

// pickRemoteUniform draws a destination uniformly from all hosts except src.
func (m *Mixed) pickRemoteUniform(src int) int {
	n := m.topo.NumHosts()
	d := m.rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// pickRackLocal draws a destination uniformly from src's rack, excluding
// src itself. Rack hosts are contiguous ids [base, base+k), so the draw
// is pure arithmetic — no HostsInRack slice per arrival — and consumes
// the same single RNG variate as the slice formulation did.
func (m *Mixed) pickRackLocal(src int) int {
	k := m.cfg.Topology.Config().HostsPerRack
	base := m.topo.RackOf(src) * k
	d := base + m.rng.Intn(k-1)
	if d >= src {
		// shifting by one position keeps uniformity over the rack minus src.
		d++
	}
	return d
}

// RateMatrix returns the expected normalized rate matrix Λ: entry (i, j)
// is the mean bytes/s from host i to host j divided by the port capacity
// in bytes/s. Feeding this to the birkhoff package checks paper Eq. (2)
// and computes the stability slack ε for the configured workload.
func (m *Mixed) RateMatrix() [][]float64 {
	n := m.topo.NumHosts()
	capacityBps := m.topo.HostLinkBps() / 8
	lambda := make([][]float64, n)
	for i := range lambda {
		lambda[i] = make([]float64, n)
	}
	var queryRate float64 // bytes/s of query traffic per host
	if m.queryGap > 0 {
		queryRate = QueryBytes / m.queryGap
	}
	var bgRate float64
	if m.bgGap > 0 {
		bgRate = m.cfg.BackgroundSizes.Mean() / m.bgGap
	}
	// Only in-range sources generate traffic; a rack-restricted generator
	// has zero rows outside [srcLo, srcHi).
	for i := m.srcLo; i < m.srcHi; i++ {
		if queryRate > 0 {
			per := queryRate / float64(n-1) / capacityBps
			for j := 0; j < n; j++ {
				if j != i {
					lambda[i][j] += per
				}
			}
		}
		if bgRate > 0 {
			rackHosts := m.topo.HostsInRack(m.topo.RackOf(i))
			per := bgRate / float64(len(rackHosts)-1) / capacityBps
			for _, j := range rackHosts {
				if j != i {
					lambda[i][j] += per
				}
			}
		}
	}
	return lambda
}
