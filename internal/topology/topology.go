// Package topology models the multi-rooted 3-layer tree fabric of the
// paper's evaluation (Figure 4): hosts grouped into racks under ToR
// switches, every ToR connected to every core switch. It provides the
// rack-locality queries the workload generator needs and the
// full-bisection check that justifies abstracting the fabric as one big
// non-blocking switch (paper Section III-A).
package topology

import (
	"errors"
	"fmt"
)

// Config describes a multi-rooted tree fabric.
type Config struct {
	// Racks is the number of ToR switches.
	Racks int
	// HostsPerRack is the number of hosts under each ToR.
	HostsPerRack int
	// Cores is the number of core switches; every ToR links to all of them.
	Cores int
	// HostLinkGbps is the host-to-ToR link capacity.
	HostLinkGbps float64
	// CoreLinkGbps is the ToR-to-core link capacity (per link).
	CoreLinkGbps float64
	// CoreHopLatencyS is the one-way ToR→core→ToR propagation latency in
	// seconds for traffic crossing racks. Intra-rack traffic pays no hop.
	// Zero means "unset" and resolves to DefaultCoreHopLatencyS; it is the
	// conservative-PDES lookahead of the sharded simulator: a cross-rack
	// arrival generated at time t cannot affect another rack before t +
	// CoreHopLatencyS.
	CoreHopLatencyS float64
}

// DefaultCoreHopLatencyS is the inter-rack hop latency used when a Config
// leaves CoreHopLatencyS zero: 25 µs, a typical intra-datacenter ToR-to-ToR
// RTT/2 (propagation plus two switch traversals).
const DefaultCoreHopLatencyS = 25e-6

// Paper returns the evaluation topology of Section V-A: 144 hosts in 12
// racks of 12, 3 cores, 10 Gbps edge links and 40 Gbps core links.
func Paper() Config {
	return Config{
		Racks:        12,
		HostsPerRack: 12,
		Cores:        3,
		HostLinkGbps: 10,
		CoreLinkGbps: 40,
	}
}

// Scaled returns the paper topology shrunk to the given number of racks and
// hosts per rack while keeping the paper's bandwidth ratios (so the fabric
// stays non-blocking). Used by reduced-scale experiment runs.
func Scaled(racks, hostsPerRack int) Config {
	c := Paper()
	c.Racks = racks
	c.HostsPerRack = hostsPerRack
	// Keep core capacity proportional to the rack's edge demand so the
	// uplinks never become the bottleneck: cores * coreGbps >= hosts * edge.
	need := float64(hostsPerRack) * c.HostLinkGbps
	for float64(c.Cores)*c.CoreLinkGbps < need {
		c.Cores++
	}
	return c
}

// ErrBlocking reports a fabric whose core layer cannot carry the edge
// demand, violating the big-switch abstraction.
var ErrBlocking = errors.New("topology: fabric is not full-bisection")

// ErrDimension reports a Config with zero or negative structural
// dimensions (racks, hosts per rack, cores) or link capacities. New wraps
// it so callers can detect invalid sizing with errors.Is.
var ErrDimension = errors.New("topology: invalid dimension")

// Topology is a validated fabric instance.
type Topology struct {
	cfg Config
}

// New validates the configuration and builds a topology.
func New(cfg Config) (*Topology, error) {
	if cfg.Racks <= 0 || cfg.HostsPerRack <= 0 || cfg.Cores <= 0 {
		return nil, fmt.Errorf("%w: non-positive count in %+v", ErrDimension, cfg)
	}
	if cfg.HostLinkGbps <= 0 || cfg.CoreLinkGbps <= 0 {
		return nil, fmt.Errorf("%w: non-positive link capacity in %+v", ErrDimension, cfg)
	}
	if cfg.CoreHopLatencyS < 0 {
		return nil, fmt.Errorf("%w: negative core-hop latency %g", ErrDimension, cfg.CoreHopLatencyS)
	}
	if cfg.CoreHopLatencyS == 0 {
		cfg.CoreHopLatencyS = DefaultCoreHopLatencyS
	}
	return &Topology{cfg: cfg}, nil
}

// MustNew is New that panics on error; for compile-time-constant configs.
func MustNew(cfg Config) *Topology {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the validated configuration.
func (t *Topology) Config() Config { return t.cfg }

// NumHosts returns the total host count.
func (t *Topology) NumHosts() int { return t.cfg.Racks * t.cfg.HostsPerRack }

// RackOf returns the rack index of a host. It panics on out-of-range host
// ids, which indicate a workload-generation bug.
func (t *Topology) RackOf(host int) int {
	if host < 0 || host >= t.NumHosts() {
		panic(fmt.Sprintf("topology: host %d out of range [0,%d)", host, t.NumHosts()))
	}
	return host / t.cfg.HostsPerRack
}

// HostsInRack returns the host ids under the given rack.
func (t *Topology) HostsInRack(rack int) []int {
	if rack < 0 || rack >= t.cfg.Racks {
		panic(fmt.Sprintf("topology: rack %d out of range [0,%d)", rack, t.cfg.Racks))
	}
	hosts := make([]int, t.cfg.HostsPerRack)
	base := rack * t.cfg.HostsPerRack
	for i := range hosts {
		hosts[i] = base + i
	}
	return hosts
}

// SameRack reports whether two hosts share a ToR.
func (t *Topology) SameRack(a, b int) bool { return t.RackOf(a) == t.RackOf(b) }

// HostLinkBps returns the host access-link capacity in bits per second —
// the per-port service rate of the big-switch abstraction.
func (t *Topology) HostLinkBps() float64 { return t.cfg.HostLinkGbps * 1e9 }

// Oversubscription returns the ratio of worst-case rack edge demand to the
// rack's aggregate uplink capacity. A value <= 1 means the fabric is
// rearrangeably non-blocking at the rack level.
func (t *Topology) Oversubscription() float64 {
	edge := float64(t.cfg.HostsPerRack) * t.cfg.HostLinkGbps
	uplink := float64(t.cfg.Cores) * t.cfg.CoreLinkGbps
	return edge / uplink
}

// ValidateNonBlocking confirms the big-switch abstraction holds: the core
// layer can absorb every rack's full edge demand, so the only bottlenecks
// are the sender and receiver access links.
func (t *Topology) ValidateNonBlocking() error {
	if over := t.Oversubscription(); over > 1 {
		return fmt.Errorf("%w: oversubscription %.3f > 1 (%d x %g Gbps hosts vs %d x %g Gbps uplinks)",
			ErrBlocking, over, t.cfg.HostsPerRack, t.cfg.HostLinkGbps, t.cfg.Cores, t.cfg.CoreLinkGbps)
	}
	return nil
}

// CoreHopLatency returns the one-way inter-rack propagation latency in
// seconds (CoreHopLatencyS resolved against its default). It is the
// conservative lookahead of the sharded simulator: no event generated in a
// rack at time t can reach another rack before t + CoreHopLatency.
func (t *Topology) CoreHopLatency() float64 { return t.cfg.CoreHopLatencyS }
