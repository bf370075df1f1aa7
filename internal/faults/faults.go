// Package faults is the deterministic fault-injection subsystem: a
// seed-driven generator of fault schedules (link outages and degradations,
// scheduler/control-plane outages, packet- and control-message-loss rates)
// and an injector that the simulators query at run time.
//
// The paper's queue evolution (Eq. 1) carries an explicit loss term L(t)
// that an ideal run never exercises, and the Section IV-C
// distributed-implementability argument presumes request/grant messages
// that can be lost or delayed. This package makes both failure regimes
// injectable so experiments can measure how the disciplines degrade — and
// it does so deterministically: the same Params produce a byte-identical
// Schedule and the same injector draws, so every fault run is replayable
// for debugging.
//
// Concurrency contract: a Schedule is immutable after Generate and may be
// shared across goroutines, but an Injector holds RNG state for its loss
// draws and must not be — construct one Injector per simulation. The
// multi-seed harness (internal/runner) relies on this split: concurrent
// replicates each generate their own schedule from a derived seed and wrap
// it in a private injector.
package faults

import (
	"fmt"
	"math"
	"sort"

	"basrpt/internal/obs"
	"basrpt/internal/stats"
)

// Window is one half-open fault interval [Start, End) in simulated seconds.
type Window struct {
	Start float64
	End   float64
}

// Duration returns End − Start.
func (w Window) Duration() float64 { return w.End - w.Start }

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// LinkFault is one access-link fault: for the window, port's full-duplex
// access link runs at RateFraction of its nominal rate (0 = hard down).
type LinkFault struct {
	Window
	Port int
	// RateFraction is the surviving fraction of the link rate in [0, 1).
	RateFraction float64
}

// Params parameterizes schedule generation. Zero values select the
// documented defaults; counts of zero disable that fault class.
type Params struct {
	// Seed drives every random draw; the same seed yields a byte-identical
	// schedule. Must be nonzero.
	Seed uint64
	// Horizon is the simulated horizon in seconds the faults must fit in.
	Horizon float64
	// Ports is the number of fabric ports link faults can hit.
	Ports int

	// LinkFaults is the number of link-fault windows to place.
	LinkFaults int
	// MeanLinkFaultDuration is the mean of the (exponential, clamped)
	// fault-duration draw. Default: Horizon/20.
	MeanLinkFaultDuration float64
	// DegradedProb is the probability a link fault degrades the link
	// (RateFraction drawn in [0.25, 0.75]) instead of killing it.
	// Default 0.5.
	DegradedProb float64

	// Outages is the number of scheduler/control-plane outage windows.
	Outages int
	// MeanOutageDuration is the mean outage-duration draw.
	// Default: Horizon/20.
	MeanOutageDuration float64

	// PacketLossProb is the per-scheduled-packet Bernoulli loss rate the
	// slotted switch applies (Eq. 1's L(t)). Must be in [0, 1).
	PacketLossProb float64
	// GrantLossProb is the per-proposal control-message loss rate of the
	// distributed request/grant arbitration. Must be in [0, 1).
	GrantLossProb float64
}

func (p Params) withDefaults() Params {
	if p.MeanLinkFaultDuration == 0 {
		p.MeanLinkFaultDuration = p.Horizon / 20
	}
	if p.MeanOutageDuration == 0 {
		p.MeanOutageDuration = p.Horizon / 20
	}
	if p.DegradedProb == 0 {
		p.DegradedProb = 0.5
	}
	return p
}

// Schedule is a fully materialized fault plan. It is pure data: generating
// it is separate from injecting it, so one schedule can be replayed
// against several schedulers for an apples-to-apples comparison.
type Schedule struct {
	Seed    uint64
	Horizon float64

	// LinkFaults is sorted by Start and globally disjoint, so the faults
	// on any single link never overlap.
	LinkFaults []LinkFault
	// Outages is sorted by Start and disjoint.
	Outages []Window

	PacketLossProb float64
	GrantLossProb  float64
}

// activeLo/activeHi bound the fraction of the horizon faults are placed
// in, leaving a fault-free prefix (the recovery metric's baseline) and a
// fault-free suffix (room to recover).
const (
	activeLo = 0.1
	activeHi = 0.9
)

// Generate derives a fault schedule from params. It is deterministic:
// equal Params yield byte-identical Schedules. Windows are guaranteed
// non-negative, inside [0, Horizon], and disjoint within their class
// (link faults are globally disjoint, hence disjoint per link).
func Generate(p Params) (*Schedule, error) {
	p = p.withDefaults()
	if p.Seed == 0 {
		// Rejected rather than defaulted: a default would give two
		// distinct seeds one schedule.
		return nil, fmt.Errorf("faults: seed must be nonzero")
	}
	if !positiveFinite(p.Horizon) {
		return nil, fmt.Errorf("faults: invalid horizon %g", p.Horizon)
	}
	if p.LinkFaults < 0 || p.Outages < 0 {
		return nil, fmt.Errorf("faults: negative fault count (%d link, %d outage)", p.LinkFaults, p.Outages)
	}
	if p.LinkFaults > 0 && p.Ports <= 0 {
		return nil, fmt.Errorf("faults: %d link faults need a positive port count, got %d", p.LinkFaults, p.Ports)
	}
	if !positiveFinite(p.MeanLinkFaultDuration) || !positiveFinite(p.MeanOutageDuration) {
		return nil, fmt.Errorf("faults: mean durations (link fault %g, outage %g) not positive and finite",
			p.MeanLinkFaultDuration, p.MeanOutageDuration)
	}
	// The probability checks are negated so NaN fails them too.
	if !(p.DegradedProb >= 0 && p.DegradedProb <= 1) {
		return nil, fmt.Errorf("faults: degraded probability %g outside [0, 1]", p.DegradedProb)
	}
	if !(p.PacketLossProb >= 0 && p.PacketLossProb < 1) {
		return nil, fmt.Errorf("faults: packet loss probability %g outside [0, 1)", p.PacketLossProb)
	}
	if !(p.GrantLossProb >= 0 && p.GrantLossProb < 1) {
		return nil, fmt.Errorf("faults: grant loss probability %g outside [0, 1)", p.GrantLossProb)
	}

	s := &Schedule{
		Seed:           p.Seed,
		Horizon:        p.Horizon,
		PacketLossProb: p.PacketLossProb,
		GrantLossProb:  p.GrantLossProb,
	}
	// Independent streams per fault class so adding outages never perturbs
	// the link-fault draws of the same seed.
	root := stats.NewRNG(p.Seed)
	linkRNG := root.Split()
	outageRNG := root.Split()

	for _, w := range placeWindows(linkRNG, p.LinkFaults, p.Horizon, p.MeanLinkFaultDuration) {
		lf := LinkFault{Window: w, Port: linkRNG.Intn(p.Ports)}
		if linkRNG.Float64() < p.DegradedProb {
			lf.RateFraction = 0.25 + 0.5*linkRNG.Float64()
		}
		s.LinkFaults = append(s.LinkFaults, lf)
	}
	s.Outages = placeWindows(outageRNG, p.Outages, p.Horizon, p.MeanOutageDuration)
	return s, nil
}

// positiveFinite reports whether x is a usable horizon or duration:
// positive and finite (NaN is neither).
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// placeWindows returns count disjoint windows inside the horizon's active
// band, sorted by start time. Each window lives in its own equal slice of
// the band, which makes disjointness structural rather than statistical —
// no rejection sampling, so generation cost is O(count) for any seed.
func placeWindows(rng *stats.RNG, count int, horizon, meanDur float64) []Window {
	if count <= 0 {
		return nil
	}
	lo := activeLo * horizon
	segLen := (activeHi - activeLo) * horizon / float64(count)
	out := make([]Window, 0, count)
	for i := 0; i < count; i++ {
		dur := rng.Exp(1 / meanDur)
		if maxDur := 0.8 * segLen; dur > maxDur {
			dur = maxDur
		}
		if minDur := 0.01 * segLen; dur < minDur {
			dur = minDur
		}
		segStart := lo + float64(i)*segLen
		start := segStart + rng.Float64()*(segLen-dur)
		out = append(out, Window{Start: start, End: start + dur})
	}
	return out
}

// Validate re-checks the structural invariants Generate guarantees. The
// simulators run it on every schedule they inject, which callers may
// build by hand, so every bound is checked in negated form: a NaN fails
// it instead of passing.
func (s *Schedule) Validate() error {
	if !positiveFinite(s.Horizon) {
		return fmt.Errorf("faults: schedule horizon %g not positive and finite", s.Horizon)
	}
	check := func(kind string, w Window) error {
		if !(w.Start >= 0 && w.End <= s.Horizon) {
			return fmt.Errorf("faults: %s window [%g, %g) outside horizon [0, %g]", kind, w.Start, w.End, s.Horizon)
		}
		if !(w.Duration() > 0) {
			return fmt.Errorf("faults: %s window [%g, %g) has non-positive duration", kind, w.Start, w.End)
		}
		return nil
	}
	if !(s.PacketLossProb >= 0 && s.PacketLossProb < 1) || !(s.GrantLossProb >= 0 && s.GrantLossProb < 1) {
		return fmt.Errorf("faults: loss probabilities (packet %g, grant %g) outside [0, 1)", s.PacketLossProb, s.GrantLossProb)
	}
	for i, lf := range s.LinkFaults {
		if err := check("link-fault", lf.Window); err != nil {
			return err
		}
		if lf.Port < 0 {
			return fmt.Errorf("faults: link fault on negative port %d", lf.Port)
		}
		if !(lf.RateFraction >= 0 && lf.RateFraction < 1) {
			return fmt.Errorf("faults: link fault rate fraction %g outside [0, 1)", lf.RateFraction)
		}
		if i > 0 && lf.Start < s.LinkFaults[i-1].End {
			return fmt.Errorf("faults: link faults %d and %d overlap", i-1, i)
		}
	}
	for i, w := range s.Outages {
		if err := check("outage", w); err != nil {
			return err
		}
		if i > 0 && w.Start < s.Outages[i-1].End {
			return fmt.Errorf("faults: outages %d and %d overlap", i-1, i)
		}
	}
	return nil
}

// FirstFaultStart returns the earliest fault-window start, or +Inf when
// the schedule has no windows.
func (s *Schedule) FirstFaultStart() float64 {
	first := math.Inf(1)
	for _, lf := range s.LinkFaults {
		first = math.Min(first, lf.Start)
	}
	for _, w := range s.Outages {
		first = math.Min(first, w.Start)
	}
	return first
}

// LastFaultEnd returns the latest fault-window end, or −Inf when the
// schedule has no windows.
func (s *Schedule) LastFaultEnd() float64 {
	last := math.Inf(-1)
	for _, lf := range s.LinkFaults {
		last = math.Max(last, lf.End)
	}
	for _, w := range s.Outages {
		last = math.Max(last, w.End)
	}
	return last
}

// String summarizes the schedule for report headers.
func (s *Schedule) String() string {
	return fmt.Sprintf("faults(seed=%d: %d link faults, %d outages, pkt-loss %g, grant-loss %g)",
		s.Seed, len(s.LinkFaults), len(s.Outages), s.PacketLossProb, s.GrantLossProb)
}

// Injector answers the simulators' runtime queries against a schedule.
// Construct one fresh Injector per run: the Bernoulli loss draws consume
// internal RNG state, so sharing an injector across runs would couple
// their loss processes. Not safe for concurrent use.
type Injector struct {
	s          *Schedule
	boundaries []float64 // sorted unique window starts/ends
	lossRNG    *stats.RNG
	grantRNG   *stats.RNG

	// Observability counters (nil no-ops until SetRegistry). The draws are
	// pure functions of the RNG streams, so counting them never perturbs
	// the loss processes.
	cPktDrop   *obs.Counter
	cGrantDrop *obs.Counter
}

// NewInjector prepares a schedule for injection. The loss streams are
// seeded from the schedule's seed, so two injectors over the same
// schedule make identical draws.
func NewInjector(s *Schedule) *Injector {
	if s == nil {
		panic("faults: NewInjector on nil schedule")
	}
	in := &Injector{s: s}
	var ts []float64
	for _, lf := range s.LinkFaults {
		ts = append(ts, lf.Start, lf.End)
	}
	for _, w := range s.Outages {
		ts = append(ts, w.Start, w.End)
	}
	sort.Float64s(ts)
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			in.boundaries = append(in.boundaries, t)
		}
	}
	root := stats.NewRNG(s.Seed ^ 0x6661756c74730a) // distinct from Generate's stream
	in.lossRNG = root.Split()
	in.grantRNG = root.Split()
	return in
}

// Schedule returns the underlying schedule.
func (in *Injector) Schedule() *Schedule { return in.s }

// SetRegistry attaches observability counters for the Bernoulli loss
// draws ("faults.packets_dropped", "faults.grants_dropped"). A nil
// registry detaches them.
func (in *Injector) SetRegistry(r *obs.Registry) {
	in.cPktDrop = r.Counter("faults.packets_dropped")
	in.cGrantDrop = r.Counter("faults.grants_dropped")
}

// NextBoundaryAfter returns the earliest fault-window start or end
// strictly after t — the next instant the fault state changes and the
// fabric must reschedule.
func (in *Injector) NextBoundaryAfter(t float64) (float64, bool) {
	i := sort.SearchFloat64s(in.boundaries, t)
	for i < len(in.boundaries) && in.boundaries[i] <= t {
		i++
	}
	if i >= len(in.boundaries) {
		return 0, false
	}
	return in.boundaries[i], true
}

// LinkRateFraction returns the surviving fraction of port's access-link
// rate at time t: 1 when healthy, the fault's RateFraction inside a fault
// window.
func (in *Injector) LinkRateFraction(port int, t float64) float64 {
	for _, lf := range in.s.LinkFaults {
		if lf.Port == port && lf.Contains(t) {
			return lf.RateFraction
		}
		if lf.Start > t {
			break // sorted by start; nothing later can contain t
		}
	}
	return 1
}

// SchedulerDown reports whether the centralized scheduler is unreachable
// at time t.
func (in *Injector) SchedulerDown(t float64) bool {
	for _, w := range in.s.Outages {
		if w.Contains(t) {
			return true
		}
		if w.Start > t {
			break
		}
	}
	return false
}

// TransitionsAt counts the fault windows starting and ending exactly at
// t — the counter deltas the fabric records when it processes a fault
// boundary event.
func (in *Injector) TransitionsAt(t float64) (linkStarts, linkEnds, outageStarts, outageEnds int) {
	for _, lf := range in.s.LinkFaults {
		if lf.Start == t {
			linkStarts++
		}
		if lf.End == t {
			linkEnds++
		}
	}
	for _, w := range in.s.Outages {
		if w.Start == t {
			outageStarts++
		}
		if w.End == t {
			outageEnds++
		}
	}
	return
}

// DropPacket draws the next packet-loss Bernoulli: true means the
// scheduled packet is lost in flight and stays in its VOQ (Eq. 1's L(t)).
func (in *Injector) DropPacket() bool {
	drop := in.s.PacketLossProb > 0 && in.lossRNG.Float64() < in.s.PacketLossProb
	if drop {
		in.cPktDrop.Inc()
	}
	return drop
}

// DropGrant draws the next control-message-loss Bernoulli for the
// distributed arbitration: true means the request/grant exchange is lost
// and the proposing host must retry, costing an arbitration round.
func (in *Injector) DropGrant() bool {
	drop := in.s.GrantLossProb > 0 && in.grantRNG.Float64() < in.s.GrantLossProb
	if drop {
		in.cGrantDrop.Inc()
	}
	return drop
}
