package switchsim

import (
	"fmt"

	"basrpt/internal/flow"
	"basrpt/internal/lyapunov"
	"basrpt/internal/metrics"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
)

// Config parameterizes a slotted-switch run.
type Config struct {
	// N is the port count.
	N int
	// Scheduler picks the flows to serve each slot.
	Scheduler sched.Scheduler
	// Arrivals feeds flows into the switch.
	Arrivals ArrivalProcess
	// SampleEvery records backlog/Lyapunov series every k slots (default 1).
	SampleEvery int64
	// OnSlot, when non-nil, observes each slot's decision at decision time
	// (before transmission); the Figure 1 example prints the slot-by-slot
	// schedule from it and the Theorem 1 harness samples ȳ.
	OnSlot func(t int64, decision []*flow.Flow)
	// ValidateDecisions re-checks the crossbar constraint on every slot.
	// Cheap insurance in tests; off by default in benchmarks.
	ValidateDecisions bool
	// Loss, when non-nil, drops each scheduled packet with a seeded
	// Bernoulli draw — the explicit L(t) of Eq. (1). A dropped packet
	// stays in its VOQ and is retransmitted in a later slot, so byte
	// conservation (arrived = departed + backlog) still holds.
	// faults.Injector satisfies this.
	Loss PacketDropper
	// Obs, when non-nil, receives occupancy/loss instrumentation: the
	// "switch.arrived_packets" / "switch.departed_packets" /
	// "switch.packets_lost" / "switch.completed_flows" counters, the
	// "switch.total_backlog" occupancy gauge (sampled on the SampleEvery
	// cadence, with its high-water mark), and a "switch.drop" trace event
	// per lost packet (T is the slot index, Port the ingress). A nil Obs
	// costs one pointer comparison per probe.
	Obs *obs.Obs
}

// PacketDropper decides per scheduled packet whether it is lost in
// flight. Implementations must be deterministic given their seed.
type PacketDropper interface {
	DropPacket() bool
}

// Sim is a slotted input-queued switch simulation. Create with New, advance
// with Step or Run, then read the accumulated metrics.
type Sim struct {
	cfg   Config
	table *flow.Table
	slot  int64

	nextID flow.ID

	arrivedPackets  float64
	departedPackets float64
	lostPackets     int64
	completedFlows  int

	fct          *metrics.FCT
	totalBacklog metrics.Series
	lyapunov     metrics.Series

	// Instrumentation, resolved once at New (nil no-ops when cfg.Obs is nil).
	cArrived   *obs.Counter
	cDeparted  *obs.Counter
	cLost      *obs.Counter
	cCompleted *obs.Counter
	gBacklog   *obs.Gauge
}

// New validates the configuration and builds a simulation.
func New(cfg Config) (*Sim, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("switchsim: invalid port count %d", cfg.N)
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("switchsim: nil scheduler")
	}
	if cfg.Arrivals == nil {
		return nil, fmt.Errorf("switchsim: nil arrival process")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	s := &Sim{
		cfg:    cfg,
		table:  flow.NewTable(cfg.N),
		nextID: 1,
		fct:    metrics.NewFCT(),
	}
	s.cArrived = cfg.Obs.Counter("switch.arrived_packets")
	s.cDeparted = cfg.Obs.Counter("switch.departed_packets")
	s.cLost = cfg.Obs.Counter("switch.packets_lost")
	s.cCompleted = cfg.Obs.Counter("switch.completed_flows")
	s.gBacklog = cfg.Obs.Gauge("switch.total_backlog")
	return s, nil
}

// Slot returns the index of the next slot to execute.
func (s *Sim) Slot() int64 { return s.slot }

// Step executes one slot: arrivals at the beginning of the slot, one
// scheduling decision, one packet transmitted per selected flow, then
// sampling. This realizes Eq. (1): X(t+1) = X(t) + A(t) − R(t) + L(t),
// with the rectification L implicit because only queued packets transmit.
func (s *Sim) Step() error {
	t := s.slot
	for _, a := range s.cfg.Arrivals.Arrivals(t) {
		if a.Packets <= 0 {
			continue
		}
		f := flow.NewFlow(s.nextID, a.Src, a.Dst, flow.ClassOther, float64(a.Packets), float64(t))
		s.nextID++
		s.table.Add(f)
		s.arrivedPackets += float64(a.Packets)
		s.cArrived.Add(int64(a.Packets))
	}

	decision := s.cfg.Scheduler.Schedule(s.table)
	if s.cfg.ValidateDecisions {
		if err := sched.ValidateDecision(s.cfg.N, decision); err != nil {
			return fmt.Errorf("slot %d: %w", t, err)
		}
	}
	if s.cfg.OnSlot != nil {
		// Observe at decision time, before transmission, so penalty
		// measurements (ȳ) see the remaining sizes the scheduler saw.
		s.cfg.OnSlot(t, decision)
	}
	for _, f := range decision {
		if s.cfg.Loss != nil && s.cfg.Loss.DropPacket() {
			// The scheduled packet is lost in flight: it re-enters its VOQ
			// (i.e. is never drained) and the slot's service is wasted —
			// Eq. (1)'s X(t+1) = X(t) + A(t) − R(t) + L(t) with L(t) = 1.
			s.lostPackets++
			s.cLost.Inc()
			s.cfg.Obs.Emit(float64(t), "switch.drop", f.Src, 1, "")
			continue
		}
		s.departedPackets += s.table.Drain(f, 1)
		s.cDeparted.Inc()
		if f.Remaining <= 0 {
			s.table.Remove(f)
			s.completedFlows++
			s.cCompleted.Inc()
			// FCT in slots: a flow arriving at the beginning of slot a and
			// finishing during slot c has occupied c − a + 1 slots.
			s.fct.Add(flow.ClassOther, float64(t)-f.Arrival+1)
		}
	}

	if t%s.cfg.SampleEvery == 0 {
		ft := float64(t)
		s.gBacklog.Set(s.table.TotalBacklog())
		s.totalBacklog.Add(ft, s.table.TotalBacklog())
		s.lyapunov.Add(ft, s.LyapunovValue())
	}
	s.slot++
	return nil
}

// Run executes the given number of slots.
func (s *Sim) Run(slots int64) error {
	for i := int64(0); i < slots; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// LyapunovValue computes L(X) = ½ Σij Xij² over the current state.
func (s *Sim) LyapunovValue() float64 { return lyapunov.Value(s.table) }

// Table exposes the live VOQ state (read-only use expected).
func (s *Sim) Table() *flow.Table { return s.table }

// FCT returns the completion-time collector (FCTs are in slots).
func (s *Sim) FCT() *metrics.FCT { return s.fct }

// TotalBacklogSeries returns the sampled total backlog (packets).
func (s *Sim) TotalBacklogSeries() *metrics.Series { return &s.totalBacklog }

// LyapunovSeries returns the sampled L(X) series.
func (s *Sim) LyapunovSeries() *metrics.Series { return &s.lyapunov }

// ArrivedPackets returns the cumulative packets offered.
func (s *Sim) ArrivedPackets() float64 { return s.arrivedPackets }

// DepartedPackets returns the cumulative packets transmitted.
func (s *Sim) DepartedPackets() float64 { return s.departedPackets }

// LostPackets returns the cumulative scheduled packets lost in flight
// (zero without a Loss process).
func (s *Sim) LostPackets() int64 { return s.lostPackets }

// CompletedFlows returns the number of fully transmitted flows.
func (s *Sim) CompletedFlows() int { return s.completedFlows }

// Backlog returns the packets currently queued; by construction it always
// equals ArrivedPackets − DepartedPackets (conservation, property-tested).
func (s *Sim) Backlog() float64 { return s.table.TotalBacklog() }
