// Package fabricsim is the flow-level data-center fabric simulator that the
// paper's evaluation runs on (Section V) — the authors' Java simulator
// rebuilt in Go. The fabric is the big-switch abstraction justified in
// Section III-A: every host is a port with a full-duplex access link, the
// core is non-blocking (validated by internal/topology), and a centralized
// scheduler picks a crossbar matching of flows.
//
// The engine is event-driven and continuous-time: between events every
// selected flow transmits at the access-link rate, and — exactly as the
// paper specifies — "the scheduling decision is updated when a flow comes
// or a transfer completes". Events are flow arrivals, flow completions,
// and metric sampling ticks.
//
// A Sim single-steps one simulation and is not safe for concurrent use;
// neither are the Scheduler, Generator, or faults.Injector it is
// configured with. Parallel experiments (the internal/runner worker pool)
// therefore build a complete Sim — scheduler included — inside each worker
// task rather than sharing components. Results, including watchdog
// truncation diagnoses, are plain values that are safe to read from any
// goroutine once Run returns.
package fabricsim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"

	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/workload"
)

// completionEps is the residual (bytes) below which a flow counts as done;
// it absorbs float drift over long runs.
const completionEps = 1e-6

// Config parameterizes a fabric run.
type Config struct {
	// Hosts is the number of fabric ports (servers).
	Hosts int
	// LinkBps is the access-link rate in bits per second (the paper uses
	// 10 Gbps).
	LinkBps float64
	// Scheduler picks the transmitting flows after every arrival and
	// completion.
	Scheduler sched.Scheduler
	// Generator supplies the flow arrivals.
	Generator workload.Generator
	// Duration is the simulated horizon in seconds.
	Duration float64
	// SampleInterval is the spacing of queue-length samples in seconds
	// (default: Duration/500).
	SampleInterval float64
	// ThroughputBucket is the width (seconds) of the throughput series
	// buckets for Figure 5(a). Default: Duration/50.
	ThroughputBucket float64
	// ValidateDecisions re-checks the crossbar constraint on every
	// scheduling decision (tests set this; experiment sweeps leave it off).
	ValidateDecisions bool
	// DeepValidateEvery, when positive, recomputes the entire VOQ-table
	// bookkeeping from first principles every k scheduling decisions and
	// fails the run on any divergence — a self-check against incremental-
	// accounting bugs (float drift, heap corruption). Expensive; used by
	// tests and long validation runs.
	DeepValidateEvery int64
	// Seed is informational: it identifies the run in error messages and
	// diagnoses so failed sweep points are replayable. It does not drive
	// any randomness here (the generator and schedulers own their seeds).
	Seed uint64
	// Faults, when non-nil, injects the schedule's link faults (access
	// links down or degraded for an interval, forcing reschedules at the
	// boundaries) and scheduler outages (decisions served from the held
	// matching via sched.OutageFallback). Build one fresh injector per run.
	Faults *faults.Injector
	// Watchdog, when non-nil, bounds the run and truncates it gracefully —
	// partial Result plus Diagnosis — instead of running blind.
	Watchdog *Watchdog
	// Obs, when non-nil, receives the run's instrumentation: backlog
	// samples, completion and fault-boundary events, and the flight
	// recorder that truncation diagnoses quote. All events are stamped
	// with simulation time, so fixed-seed traced runs are byte-identical.
	// When nil the simulator still accumulates its counters (Decisions,
	// SchedNanos) through a private registry; the per-probe cost is the
	// same pointer-indirected add either way, and the event probes reduce
	// to one pointer comparison.
	Obs *obs.Obs

	// CheckpointEvery, when positive, snapshots the full simulator state
	// every that many simulated seconds and hands the encoded checkpoint
	// to CheckpointSink. Checkpoints are taken at event-loop tops, where
	// the state is fully consistent, so restoring one re-enters the loop
	// exactly where the original run stood. Requires a Generator that
	// implements workload.Checkpointable and a non-nil CheckpointSink.
	CheckpointEvery float64
	// CheckpointSink receives each periodic checkpoint (encoded bytes plus
	// the simulated time it covers). Returning ErrStopAfterCheckpoint
	// halts the run cleanly — partial Result with a "checkpoint-stop"
	// Diagnosis carrying the bytes — without emitting any trace event, so
	// a halted run's trace concatenated with its resumed continuation is
	// byte-identical to the uninterrupted run's. Any other error fails
	// the run.
	CheckpointSink func(data []byte, simTime float64) error
	// StreamWindow, when positive, turns on streaming results mode for
	// long horizons: every StreamWindow simulated seconds the run emits
	// window.completed / window.gbps / window.fct_avg_ms / window.backlog
	// events through Obs, and FCT sample retention switches to a bounded
	// tail of streamKeep samples per class, so the one record that grows
	// with the horizon stays bounded. (The series need no bound: they
	// hold Duration/SampleInterval + 1 points, about 500 by default.)
	StreamWindow float64
	// OnProgress, when non-nil, receives the run's live position at every
	// sample tick — the centralized engine's heartbeat for ops endpoints
	// and progress displays. It belongs to the wall-clock observability
	// plane: the callback runs on the simulation goroutine and must not
	// feed anything deterministic (the run's physics, results, and traces
	// are byte-identical whether or not it is set).
	OnProgress func(RunProgress)
}

// RunProgress is a run's live position: where the simulated clock
// stands and how much work the engine has done so far. The centralized
// engine hands it to Config.OnProgress at each sample tick; the
// decomposed engine embeds it in the ShardProgress it hands to
// ShardConfig.OnWindow after each barrier. The ops endpoint serves it as
// is. Wall-clock plane only — values are consistent at the beat, but the
// cadence follows the engine's sample ticks or barriers.
type RunProgress struct {
	// SimTime is the simulated clock in seconds; Duration the configured
	// horizon.
	SimTime  float64 `json:"sim_time_s"`
	Duration float64 `json:"duration_s"`
	// Windows counts the windows completed so far: streaming windows
	// flushed on the centralized engine (0 outside streaming mode),
	// lookahead windows on the decomposed one.
	Windows int `json:"windows"`
	// Decisions, ArrivedFlows, and CompletedFlows are cumulative work
	// counters at the beat.
	Decisions      int64 `json:"decisions"`
	ArrivedFlows   int   `json:"arrived_flows"`
	CompletedFlows int   `json:"completed_flows"`
	// BacklogBytes is the fabric's total backlog at the last sample tick.
	BacklogBytes float64 `json:"backlog_bytes"`
}

// PercentDone returns the run's position as a percentage of its horizon
// (0 when the horizon is unknown).
func (p RunProgress) PercentDone() float64 {
	if p.Duration <= 0 {
		return 0
	}
	return 100 * p.SimTime / p.Duration
}

// ErrStopAfterCheckpoint, returned from a CheckpointSink, halts the run
// cleanly right after the checkpoint is taken. See Config.CheckpointSink.
var ErrStopAfterCheckpoint = errors.New("fabricsim: stop after checkpoint")

// Watchdog bounds a run's backlog; a zero bound is disabled. A truncation
// Diagnosis captures the last 16 flight-recorder events when the run has
// a Config.Obs.
type Watchdog struct {
	// MaxBacklogBytes trips when the fabric's total backlog exceeds it —
	// the divergence detector for runs past the stability boundary. It is
	// checked at sample ticks, so truncation stays deterministic. It must
	// be finite and >= 0; 0 disables the check.
	MaxBacklogBytes float64
}

// Diagnosis explains a watchdog truncation. A nil Result.Diagnosis means
// the run reached its horizon.
type Diagnosis struct {
	// Reason is "backlog-bound" or "checkpoint-stop" (a clean halt
	// requested by the checkpoint sink, not a failure).
	Reason string
	// SimTime is the simulated time reached (seconds).
	SimTime float64
	// BacklogBytes is the fabric backlog at the stop.
	BacklogBytes float64
	// Events is the number of scheduling decisions taken.
	Events int64
	// Seed echoes Config.Seed for replay.
	Seed uint64
	// TableEpoch is the VOQ table's mutation epoch at the stop (see
	// flow.Table change tracking) — together with Seed it pins the exact
	// table state for replaying incremental-index divergences.
	TableEpoch uint64
	// LastEvents is the tail of the flight recorder at the stop — up to
	// the last 16 events that led to the truncation, oldest first. Empty
	// when the run had no Config.Obs.
	LastEvents []obs.Event
	// Checkpoint is the encoded simulator state at the stop, captured
	// before the truncation event was emitted, so the truncated run is
	// resumable (see Resume) instead of merely explained. Populated for
	// "checkpoint-stop" always, and for watchdog truncations when the
	// generator supports checkpointing. Excluded from JSON: diagnosis
	// serializations stay small and deterministic.
	Checkpoint []byte `json:"-"`
	// CheckpointErr records why a truncation checkpoint could not be
	// captured (empty on success or when capture was not attempted).
	CheckpointErr string
}

// String renders the diagnosis as a one-line summary, followed by the
// captured flight-recorder events when there are any, so a truncated run
// explains the event sequence that led to the stop.
func (d *Diagnosis) String() string {
	s := fmt.Sprintf("truncated (%s) at t=%.4gs: backlog %.4g bytes after %d decisions (seed %d, epoch %d)",
		d.Reason, d.SimTime, d.BacklogBytes, d.Events, d.Seed, d.TableEpoch)
	if len(d.LastEvents) == 0 {
		return s
	}
	var b strings.Builder
	b.WriteString(s)
	fmt.Fprintf(&b, "\nlast %d events:", len(d.LastEvents))
	for _, ev := range d.LastEvents {
		fmt.Fprintf(&b, "\n  #%d t=%.6gs %s port=%d value=%.6g", ev.Seq, ev.T, ev.Kind, ev.Port, ev.Value)
		if ev.Detail != "" {
			fmt.Fprintf(&b, " (%s)", ev.Detail)
		}
	}
	return b.String()
}

// diagnosisEvents is how many flight-recorder events a truncation
// Diagnosis captures (capped by the recorder's ring).
const diagnosisEvents = 16

// samplesPerRun and bucketsPerRun set the default queue-sample spacing
// (Duration/samplesPerRun) and throughput bucket width
// (Duration/bucketsPerRun). The decomposed engine always uses them.
const (
	samplesPerRun = 500
	bucketsPerRun = 50
)

// monitorPort is the ingress port whose backlog becomes
// Result.QueueSeries — the "queue length at a port" of Figures 2 and 5(b).
const monitorPort = 0

// streamKeep is the streaming-mode FCT tail: per-class samples kept in
// memory regardless of horizon length (the collector trims back to it
// once a class holds twice as many).
const streamKeep = 4096

// Result carries everything the paper's figures and tables read off a run.
type Result struct {
	// FCT holds per-class completion times in seconds.
	FCT *metrics.FCT
	// Throughput accounts bytes leaving the fabric over time.
	Throughput *metrics.Throughput
	// QueueSeries samples ingress port 0's backlog (bytes).
	QueueSeries metrics.Series
	// TotalBacklogSeries samples the whole fabric's backlog (bytes).
	TotalBacklogSeries metrics.Series
	// MaxPortSeries samples the worst ingress-port backlog (bytes).
	MaxPortSeries metrics.Series

	ArrivedFlows   int
	CompletedFlows int
	ArrivedBytes   float64
	DepartedBytes  float64
	LeftoverBytes  float64
	LeftoverFlows  int
	Decisions      int64
	// SchedNanos is the cumulative wall-clock time spent inside
	// Scheduler.Schedule, in nanoseconds. It is measured, not simulated —
	// machine-dependent by nature — so it feeds the benchmark's per-layer
	// sched metrics (bench/) and never enters the deterministic sample
	// aggregates the multi-seed runner compares across worker counts.
	SchedNanos int64
	// Duration is the simulated time covered: the configured horizon, or
	// the truncation point when the watchdog stopped the run early.
	Duration      float64
	SchedulerName string

	// Faults counts the injected fault events the run saw (zero-valued
	// for fault-free runs).
	Faults metrics.FaultCounters
	// Diagnosis is non-nil when the watchdog truncated the run; the
	// metrics above still satisfy arrived = departed + backlog.
	Diagnosis *Diagnosis

	// ShardObs holds one deterministic-plane registry snapshot per PDES
	// cell, in rack order, for decomposed (RunShard) runs — per-cell
	// decisions, windows advanced, inter-shard messages sent/delivered,
	// eventq high-water — plus each cell's wall-clock busy/barrier-wait
	// counters ("wall." names, excluded from digests via obs.IsWallClock).
	// The deterministic entries are byte-identical across shard counts
	// and GOMAXPROCS (property-tested, and folded into
	// DeterministicDigest). Nil for centralized runs.
	ShardObs []obs.Snapshot
	// Imbalance is the decomposed run's post-run wall-clock attribution
	// report: which cell the barriers waited on and how skewed the load
	// was. Wall-clock plane — never digested, never byte-compared. Nil
	// for centralized runs.
	Imbalance *ShardImbalance

	// Obs is the end-of-run snapshot of the instrumentation registry —
	// every counter, gauge, and histogram the run accumulated, including
	// the slow-path stats finish() folds in (incremental-index
	// repair/rebuild counts, held decisions, arbitration rounds, event-
	// calendar high-water). Populated whether or not Config.Obs was set;
	// wall-clock-derived entries (fabric.sched_nanos, fabric.decision_ns)
	// are machine-dependent and never enter deterministic comparisons.
	Obs obs.Snapshot
}

// Truncated reports whether the watchdog stopped the run early.
func (r *Result) Truncated() bool { return r.Diagnosis != nil }

// AverageGbps returns the run's mean departure rate in Gbps — the paper's
// global throughput metric.
func (r *Result) AverageGbps() float64 {
	return r.Throughput.AverageGbps(r.Duration)
}

// Sim is a single fabric simulation. Build with New, execute with Run. It
// steps one cell spanning every host, and is that cell's calendar (the
// generator feed and the sample tick with its watchdog test). It keeps
// what only the centralized engine has: checkpoints, streaming windows,
// and the watchdog.
type Sim struct {
	cell
	cfg    Config
	nextID flow.ID

	pendingArrival workload.Arrival
	hasPending     bool

	// Checkpoint/streaming machinery. pendingTruncate defers a watchdog
	// stop to the next event-loop top — the only place the state is
	// consistent enough to checkpoint — so every truncation Diagnosis can
	// carry a resumable snapshot. fctSum and the win* trackers feed the
	// streaming windows' delta computations; all of them are serialized
	// verbatim so a resumed run's windows match the uninterrupted run's.
	nextCheckpoint  float64
	nextWindow      float64
	pendingTruncate string
	resumed         bool
	fctSum          float64
	winDeparted0    float64
	winCompleted0   int
	winFCTSum0      float64

	// reg is cfg.Obs's registry when tracing is on and a private registry
	// otherwise, so the cell's decision counters are always live —
	// Result.Decisions/SchedNanos are copied out of them at finish,
	// keeping reported values identical with and without obs.
	reg *obs.Registry
}

// New validates the configuration and prepares a run.
func New(cfg Config) (*Sim, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("fabricsim: invalid host count %d", cfg.Hosts)
	}
	if cfg.LinkBps <= 0 {
		return nil, fmt.Errorf("fabricsim: invalid link rate %g", cfg.LinkBps)
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("fabricsim: nil scheduler")
	}
	if err := sched.CheckPorts(cfg.Scheduler, cfg.Hosts); err != nil {
		return nil, fmt.Errorf("fabricsim: %w", err)
	}
	if cfg.Generator == nil {
		return nil, fmt.Errorf("fabricsim: nil generator")
	}
	if !positiveFinite(cfg.Duration) {
		return nil, fmt.Errorf("fabricsim: invalid duration %g", cfg.Duration)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"sample interval", cfg.SampleInterval},
		{"throughput bucket", cfg.ThroughputBucket},
		{"stream window", cfg.StreamWindow},
		{"checkpoint interval", cfg.CheckpointEvery},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return nil, fmt.Errorf("fabricsim: invalid %s %g", p.name, p.v)
		}
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = cfg.Duration / samplesPerRun
	}
	if cfg.ThroughputBucket <= 0 {
		cfg.ThroughputBucket = cfg.Duration / bucketsPerRun
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Schedule().Validate(); err != nil {
			return nil, err
		}
		for _, lf := range cfg.Faults.Schedule().LinkFaults {
			if lf.Port >= cfg.Hosts {
				return nil, fmt.Errorf("fabricsim: link fault on port %d, fabric has %d hosts", lf.Port, cfg.Hosts)
			}
		}
	}
	if wd := cfg.Watchdog; wd != nil && !(wd.MaxBacklogBytes >= 0 && !math.IsInf(wd.MaxBacklogBytes, 1)) {
		// Negated so NaN fails too: a NaN or +Inf bound never trips, so it
		// would turn the watchdog off without saying so.
		return nil, fmt.Errorf("fabricsim: watchdog bound %g not finite and >= 0 (0 disables it)", wd.MaxBacklogBytes)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("fabricsim: negative checkpoint interval %g", cfg.CheckpointEvery)
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink == nil {
		return nil, fmt.Errorf("fabricsim: checkpoint interval set without a sink")
	}
	if cfg.CheckpointSink != nil {
		if cfg.CheckpointEvery <= 0 {
			return nil, fmt.Errorf("fabricsim: checkpoint sink set without an interval")
		}
		if _, ok := cfg.Generator.(workload.Checkpointable); !ok {
			return nil, fmt.Errorf("fabricsim: checkpointing requires a workload.Checkpointable generator, have %T", cfg.Generator)
		}
	}
	if cfg.StreamWindow < 0 {
		return nil, fmt.Errorf("fabricsim: negative stream window %g", cfg.StreamWindow)
	}
	newFCT := metrics.NewFCT
	if cfg.StreamWindow > 0 {
		newFCT = func() *metrics.FCT { return metrics.NewBoundedFCT(streamKeep) }
	}
	s := &Sim{
		cell: newCell(cfg.Hosts, cfg.LinkBps/8, cfg.Duration, cfg.SampleInterval, cfg.Scheduler, cfg.Faults, &Result{
			FCT:        newFCT(),
			Throughput: metrics.NewThroughput(cfg.ThroughputBucket),
			Duration:   cfg.Duration,
		}),
		cfg:            cfg,
		nextID:         1,
		nextCheckpoint: cfg.CheckpointEvery,
		nextWindow:     cfg.StreamWindow,
	}
	// Under faults the scheduler is wrapped in the outage fallback, so the
	// result carries the wrapped name ("...+hold") and fault runs are
	// recognizable in reports.
	s.res.SchedulerName = s.scheduler.Name()
	s.validate = cfg.ValidateDecisions
	s.deepEvery = cfg.DeepValidateEvery
	s.done = s.recordDone
	s.trace = cfg.Obs
	s.reg = cfg.Obs.Registry()
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.cDecisions = s.reg.Counter("fabric.decisions")
	s.cSchedNanos = s.reg.Counter("fabric.sched_nanos")
	s.hDecisionNs = s.reg.Histogram("fabric.decision_ns")
	if cfg.Faults != nil {
		cfg.Faults.SetRegistry(s.reg)
	}
	return s, nil
}

// errorf wraps a run failure with the context a sweep needs to replay it:
// the seed, the simulated time reached, and the decision count.
func (s *Sim) errorf(format string, args ...any) error {
	return fmt.Errorf("fabricsim [seed=%d t=%gs events=%d epoch=%d]: %w",
		s.cfg.Seed, s.now, s.cDecisions.Value(), s.table.Epoch(), fmt.Errorf(format, args...))
}

// Run executes the simulation to the horizon and returns the metrics.
// Invalid-configuration and internal-invariant failures return an error
// carrying the run context (seed, simulated time, event count); a tripped
// watchdog is not an error — it returns the partial Result with a
// populated Diagnosis. Each iteration is one cell.step; around it the
// loop adds only what the centralized engine alone has: deferred
// truncations and checkpoints at the loop top, and streaming windows,
// whose boundaries cap the step and are flushed after it.
func (s *Sim) Run() (*Result, error) {
	if !s.resumed {
		s.fetchArrival()
	}
	for {
		// Loop top: the one place the simulator state is fully consistent
		// (completions collected, arrivals admitted, decision fresh), which
		// is why deferred truncations land here and periodic checkpoints
		// are taken here — restoring one re-enters this exact point.
		if s.pendingTruncate != "" {
			return s.truncate(s.pendingTruncate), nil
		}
		if s.cfg.CheckpointEvery > 0 && s.now >= s.nextCheckpoint {
			data, err := s.Checkpoint()
			if err != nil {
				return nil, s.errorf("checkpoint: %v", err)
			}
			for s.nextCheckpoint <= s.now {
				s.nextCheckpoint += s.cfg.CheckpointEvery
			}
			if err := s.cfg.CheckpointSink(data, s.now); err != nil {
				if errors.Is(err, ErrStopAfterCheckpoint) {
					return s.stopAtCheckpoint(data), nil
				}
				return nil, s.errorf("checkpoint sink: %v", err)
			}
		}
		capT := s.cfg.Duration
		if s.cfg.StreamWindow > 0 && s.nextWindow < capT {
			capT = s.nextWindow
		}
		t, err := s.step(capT, s)
		if err != nil {
			return nil, s.errorf("%w", err)
		}
		for s.cfg.StreamWindow > 0 && s.now >= s.nextWindow {
			s.flushWindow()
			s.nextWindow += s.cfg.StreamWindow
		}
		// The horizon ends the run; a truncation requested by its last
		// sample tick lands at the loop top first.
		if t >= s.cfg.Duration && s.pendingTruncate == "" {
			return s.finish(), nil
		}
	}
}

// finish seals the result at the current simulated time: copy the
// counter-backed totals into the Result (identical to the pre-registry
// reporting), fold the slow-path stats into the registry, and snapshot it.
func (s *Sim) finish() *Result {
	s.res.LeftoverBytes = s.table.TotalBacklog()
	s.res.LeftoverFlows = s.table.NumFlows()
	s.res.Decisions = s.cDecisions.Value()
	s.res.SchedNanos = s.cSchedNanos.Value()
	if s.fallback != nil {
		s.res.Faults.DecisionsHeld = s.fallback.HeldDecisions()
		s.reg.Counter("sched.decisions_held").Add(s.fallback.HeldDecisions())
		s.reg.Counter("sched.outage_activations").Add(s.fallback.Activations())
	}
	// Once-per-run stats pulled from the subsystems that kept them.
	s.reg.Counter("fabric.arrived_flows").Add(int64(s.res.ArrivedFlows))
	s.reg.Counter("fabric.completed_flows").Add(int64(s.res.CompletedFlows))
	s.res.Faults.GrantsLost = recordSchedStats(s.reg, s.cfg.Scheduler)
	if g, ok := s.cfg.Generator.(interface{ QueueHighWater() int }); ok {
		s.reg.Gauge("eventq.high_water").Set(float64(g.QueueHighWater()))
	}
	if s.poolOn {
		s.reg.Counter("flow.pool_reuses").Add(s.pool.Reuses())
		s.reg.Gauge("flow.pool_size").Set(float64(s.pool.Len()))
	}
	s.res.Obs = s.reg.Snapshot()
	return s.res
}

// truncate seals a watchdog-stopped run: the partial Result keeps every
// metric accumulated so far (byte conservation included) plus a Diagnosis
// saying why and where the run stopped.
func (s *Sim) truncate(reason string) *Result {
	// Capture the resumable snapshot BEFORE emitting the truncation event:
	// the uninterrupted run has no such event at this point, so a resumed
	// continuation must not carry it in the restored flight recorder.
	var ckpt []byte
	var ckptErr string
	if _, ok := s.cfg.Generator.(workload.Checkpointable); ok {
		if data, err := s.Checkpoint(); err != nil {
			ckptErr = err.Error()
		} else {
			ckpt = data
		}
	}
	// Record the stop itself before capturing the recorder tail, so the
	// captured sequence ends with the truncation event.
	s.cfg.Obs.Emit(s.now, "watchdog.truncate", -1, s.table.TotalBacklog(), reason)
	res := s.finish()
	res.Duration = s.now
	res.Diagnosis = &Diagnosis{
		Reason:        reason,
		SimTime:       s.now,
		BacklogBytes:  res.LeftoverBytes,
		Events:        res.Decisions,
		Seed:          s.cfg.Seed,
		TableEpoch:    s.table.Epoch(),
		Checkpoint:    ckpt,
		CheckpointErr: ckptErr,
		LastEvents:    s.cfg.Obs.LastEvents(diagnosisEvents),
	}
	return res
}

// fetchArrival pulls the next arrival from the generator.
func (s *Sim) fetchArrival() {
	a, ok := s.cfg.Generator.Next()
	s.pendingArrival, s.hasPending = a, ok
}

// nextArrival is the pending generator arrival's time (+Inf once the
// stream is exhausted).
func (s *Sim) nextArrival() float64 {
	if !s.hasPending {
		return math.Inf(1)
	}
	return s.pendingArrival.Time
}

// admitArrival adds the pending arrival to the fabric and pulls the next
// one. An arrival in the past (the step always advances to the earliest
// pending one) or a malformed one means the generator violated its
// contract; the run fails with context rather than panicking mid-sweep.
func (s *Sim) admitArrival() error {
	a := s.pendingArrival
	if !(a.Time >= s.now-1e-9) {
		return fmt.Errorf("generator produced out-of-order arrival at t=%g", a.Time)
	}
	if a.Src < 0 || a.Src >= s.cfg.Hosts || a.Dst < 0 || a.Dst >= s.cfg.Hosts || a.Src == a.Dst || !positiveFinite(a.Size) {
		return fmt.Errorf("generator produced invalid arrival %+v", a)
	}
	s.add(s.nextID, a.Src, a.Dst, a.Class, a.Size, a.Time)
	s.nextID++
	s.fetchArrival()
	return nil
}

// positiveFinite reports whether x is a usable duration, interval or
// size: positive and finite (NaN is neither).
func positiveFinite(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// recordDone is the centralized cell's completion hook: it feeds the
// streaming windows' FCT sum and emits flow.done as the flow leaves.
func (s *Sim) recordDone(f *flow.Flow, fct float64) {
	s.fctSum += fct
	s.cfg.Obs.Emit(s.now, "flow.done", f.Src, fct, f.Class.String())
}

// sample records the queue-length series and the matching trace events,
// then arms a deferred truncation if the backlog passed the watchdog's
// bound. When the run is instrumented it also snapshots the Go runtime's
// GC state into gauges, so a trace can correlate backlog spikes with
// collection activity. The GC numbers are machine-dependent, which is why
// they live only in registry gauges (never in trace events, whose byte-
// determinism the trace contract guarantees) and only when the caller
// opted into observability.
func (s *Sim) sample() {
	queue := s.table.IngressBacklog(monitorPort)
	total := s.table.TotalBacklog()
	maxPort, maxB := s.table.MaxIngressBacklog()
	s.res.QueueSeries.Add(s.now, queue)
	s.res.TotalBacklogSeries.Add(s.now, total)
	s.res.MaxPortSeries.Add(s.now, maxB)
	s.cfg.Obs.Emit(s.now, "sample.queue", monitorPort, queue, "")
	s.cfg.Obs.Emit(s.now, "sample.total", -1, total, "")
	s.cfg.Obs.Emit(s.now, "sample.maxport", maxPort, maxB, "")
	if s.cfg.Obs != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.reg.Gauge("runtime.gc_num").Set(float64(ms.NumGC))
		s.reg.Gauge("runtime.gc_pause_total_ns").Set(float64(ms.PauseTotalNs))
		// The gauge keeps its Max, so the snapshot reports the heap-live
		// high-water mark across the run's sample ticks.
		s.reg.Gauge("runtime.heap_live_bytes").Set(float64(ms.HeapAlloc))
	}
	if s.cfg.OnProgress != nil {
		windows := 0
		if s.cfg.StreamWindow > 0 {
			// nextWindow is the next unflushed boundary, so the flushed
			// count is one boundary behind it.
			windows = int(math.Round(s.nextWindow/s.cfg.StreamWindow)) - 1
		}
		s.cfg.OnProgress(RunProgress{
			SimTime:        s.now,
			Duration:       s.cfg.Duration,
			Windows:        windows,
			Decisions:      s.cDecisions.Value(),
			ArrivedFlows:   s.res.ArrivedFlows,
			CompletedFlows: s.res.CompletedFlows,
			BacklogBytes:   total,
		})
	}
	if wd := s.cfg.Watchdog; wd != nil && wd.MaxBacklogBytes > 0 && total > wd.MaxBacklogBytes {
		// Deferred to the next loop top (after this step's reschedule) so
		// the truncation Diagnosis can carry a consistent, resumable
		// checkpoint.
		s.pendingTruncate = "backlog-bound"
	}
}
