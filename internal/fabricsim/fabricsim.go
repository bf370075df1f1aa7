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
	"time"

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
	// MonitorPort is the ingress port whose backlog becomes QueueSeries —
	// the "queue length at a port" of Figures 2 and 5(b). Default 0.
	MonitorPort int
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
	// events through Obs, FCT sample retention switches to a bounded tail
	// (see StreamKeep), and the queue series are trimmed to their tails —
	// bounded memory regardless of horizon.
	StreamWindow float64
	// StreamKeep bounds per-class FCT samples and per-series points kept
	// in streaming mode (default 4096). Ignored when StreamWindow is 0.
	StreamKeep int
	// OnProgress, when non-nil, receives the run's live position at every
	// sample tick — the centralized engine's heartbeat for ops endpoints
	// and progress displays. It belongs to the wall-clock observability
	// plane: the callback runs on the simulation goroutine and must not
	// feed anything deterministic (the run's physics, results, and traces
	// are byte-identical whether or not it is set).
	OnProgress func(RunProgress)
}

// RunProgress is the live heartbeat handed to Config.OnProgress at each
// sample tick: where the simulated clock stands and how much work the
// engine has done so far. Wall-clock plane only — values are consistent
// at the tick but the callback cadence follows SampleInterval.
type RunProgress struct {
	// SimTime is the simulated clock in seconds; Duration the configured
	// horizon.
	SimTime  float64
	Duration float64
	// Windows counts streaming windows flushed so far (0 outside
	// streaming mode).
	Windows int
	// Decisions, ArrivedFlows, and CompletedFlows are cumulative work
	// counters at the tick.
	Decisions      int64
	ArrivedFlows   int
	CompletedFlows int
	// BacklogBytes is the fabric's total backlog at the tick.
	BacklogBytes float64
}

// ErrStopAfterCheckpoint, returned from a CheckpointSink, halts the run
// cleanly right after the checkpoint is taken. See Config.CheckpointSink.
var ErrStopAfterCheckpoint = errors.New("fabricsim: stop after checkpoint")

// Watchdog bounds a run. Zero-valued limits are disabled.
type Watchdog struct {
	// MaxBacklogBytes trips when the fabric's total backlog exceeds it —
	// the divergence detector for runs past the stability boundary. It is
	// checked at sample ticks, so truncation stays deterministic.
	MaxBacklogBytes float64
	// MaxWallClock bounds real elapsed time. Checked every few thousand
	// events; truncation at this limit is inherently machine-dependent, so
	// deterministic experiments should rely on MaxBacklogBytes.
	MaxWallClock time.Duration
	// DiagnosisEvents is how many flight-recorder events a truncation
	// Diagnosis captures (default 16, capped by the recorder's ring;
	// negative disables the capture). Only meaningful when the run has a
	// Config.Obs.
	DiagnosisEvents int
	// VerboseDiagnosis makes Diagnosis.String() print the captured
	// flight-recorder events after the one-line summary, so a truncated
	// run explains the event sequence that led to the stop.
	VerboseDiagnosis bool
}

// Diagnosis explains a watchdog truncation. A nil Result.Diagnosis means
// the run reached its horizon.
type Diagnosis struct {
	// Reason is "backlog-bound", "wallclock-budget", or "checkpoint-stop"
	// (a clean halt requested by the checkpoint sink, not a failure).
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
	// LastEvents is the tail of the flight recorder at the stop — the
	// event sequence that led to the truncation, oldest first. Empty when
	// the run had no Config.Obs or Watchdog.DiagnosisEvents is negative.
	LastEvents []obs.Event
	// Verbose mirrors Watchdog.VerboseDiagnosis: String() appends
	// LastEvents after the summary line.
	Verbose bool
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

func (d *Diagnosis) String() string {
	s := fmt.Sprintf("truncated (%s) at t=%.4gs: backlog %.4g bytes after %d decisions (seed %d, epoch %d)",
		d.Reason, d.SimTime, d.BacklogBytes, d.Events, d.Seed, d.TableEpoch)
	if !d.Verbose || len(d.LastEvents) == 0 {
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

// wallClockCheckEvery is how many event-loop iterations pass between
// wall-clock watchdog checks.
const wallClockCheckEvery = 4096

// defaultDiagnosisEvents is how many flight-recorder events a truncation
// Diagnosis captures when Watchdog.DiagnosisEvents is zero.
const defaultDiagnosisEvents = 16

// defaultStreamKeep is the streaming-mode retention bound when
// Config.StreamKeep is zero: per-class FCT samples and per-series points
// kept in memory regardless of horizon length.
const defaultStreamKeep = 4096

// Result carries everything the paper's figures and tables read off a run.
type Result struct {
	// FCT holds per-class completion times in seconds.
	FCT *metrics.FCT
	// Throughput accounts bytes leaving the fabric over time.
	Throughput *metrics.Throughput
	// QueueSeries samples the monitored ingress port's backlog (bytes).
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
	// cell, in rack order, for decomposed (Shards >= 2) runs — per-cell
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

// DecisionsPerSec returns the measured scheduling throughput: decisions
// divided by the wall-clock time spent inside Scheduler.Schedule. Zero
// when the run took no decisions (or none were timed).
func (r *Result) DecisionsPerSec() float64 {
	if r.SchedNanos <= 0 {
		return 0
	}
	return float64(r.Decisions) / (float64(r.SchedNanos) * 1e-9)
}

// Sim is a single fabric simulation. Build with New, execute with Run.
type Sim struct {
	cfg    Config
	table  *flow.Table
	now    float64
	nextID flow.ID

	decision []*flow.Flow
	byteRate float64 // bytes/s per selected flow at full link rate

	// nextCompletion caches the absolute time the earliest transmitting
	// flow finishes (+Inf: none will on its own). advanceTo refreshes it
	// during its drain pass and reschedule after each new decision, so the
	// event loop reads it instead of rescanning the decision every event.
	nextCompletion float64

	scheduler sched.Scheduler       // cfg.Scheduler, possibly wrapped
	fallback  *sched.OutageFallback // non-nil iff faults are injected
	// clearsDirty: the configured scheduler does not consume the table's
	// dirty-VOQ feed, so the sim clears it after every decision to keep
	// the dirty set from growing without bound.
	clearsDirty bool

	pendingArrival  workload.Arrival
	hasPending      bool
	nextSample      float64
	res             *Result
	drainAccumStart float64

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

	// Steady-state allocation avoidance: completed flows recycle through
	// pool into the next arrivals, decisions are re-checked by a
	// scratch-owning validator, and deepValidate keeps its per-port
	// accumulators across calls. Recycling is invisible to the physics
	// (TestFlowPoolEquivalence). poolOn is false when Faults is set: the
	// outage fallback's held matching retains flow pointers across
	// completions, which recycling would invalidate.
	pool      flow.FreeList
	poolOn    bool
	validator sched.Validator
	dvIngress []float64
	dvEgress  []float64

	// Instrumentation. reg is cfg.Obs's registry when tracing is on and a
	// private registry otherwise, so the decision counters below are
	// always live — Result.Decisions/SchedNanos are copied out of them at
	// finish, keeping reported values identical with and without obs.
	reg         *obs.Registry
	cDecisions  *obs.Counter   // fabric.decisions
	cSchedNanos *obs.Counter   // fabric.sched_nanos (wall clock)
	hDecisionNs *obs.Histogram // fabric.decision_ns (wall clock)
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
	if cfg.Generator == nil {
		return nil, fmt.Errorf("fabricsim: nil generator")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("fabricsim: invalid duration %g", cfg.Duration)
	}
	if cfg.MonitorPort < 0 || cfg.MonitorPort >= cfg.Hosts {
		return nil, fmt.Errorf("fabricsim: monitor port %d out of range", cfg.MonitorPort)
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = cfg.Duration / 500
	}
	if cfg.ThroughputBucket <= 0 {
		cfg.ThroughputBucket = cfg.Duration / 50
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
	if wd := cfg.Watchdog; wd != nil && (wd.MaxBacklogBytes < 0 || wd.MaxWallClock < 0) {
		return nil, fmt.Errorf("fabricsim: negative watchdog bound %+v", *wd)
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
	if cfg.StreamWindow < 0 || cfg.StreamKeep < 0 {
		return nil, fmt.Errorf("fabricsim: negative streaming parameter (window %g, keep %d)", cfg.StreamWindow, cfg.StreamKeep)
	}
	if cfg.StreamWindow > 0 && cfg.StreamKeep == 0 {
		cfg.StreamKeep = defaultStreamKeep
	}
	newFCT := metrics.NewFCT
	if cfg.StreamWindow > 0 {
		newFCT = func() *metrics.FCT { return metrics.NewBoundedFCT(cfg.StreamKeep) }
	}
	s := &Sim{
		cfg:            cfg,
		table:          flow.NewTable(cfg.Hosts),
		nextID:         1,
		byteRate:       cfg.LinkBps / 8,
		nextCompletion: math.Inf(1),
		scheduler:      cfg.Scheduler,
		nextCheckpoint: cfg.CheckpointEvery,
		nextWindow:     cfg.StreamWindow,
		res: &Result{
			FCT:           newFCT(),
			Throughput:    metrics.NewThroughput(cfg.ThroughputBucket),
			Duration:      cfg.Duration,
			SchedulerName: cfg.Scheduler.Name(),
		},
	}
	if cfg.Faults != nil {
		// Degraded mode for scheduler outages: hold the last matching. The
		// result carries the wrapped name ("...+hold") so fault runs are
		// recognizable in reports.
		s.fallback = sched.NewOutageFallback(cfg.Scheduler)
		s.scheduler = s.fallback
		s.res.SchedulerName = s.fallback.Name()
	}
	// Dirty-feed ownership (see the flow package's change-tracking
	// contract): an index-maintaining scheduler consumes the feed itself;
	// for everything else the sim is the consumer of record.
	s.clearsDirty = !sched.IsDirtyConsumer(s.scheduler)
	s.poolOn = cfg.Faults == nil
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
// populated Diagnosis.
func (s *Sim) Run() (*Result, error) {
	if !s.resumed {
		s.fetchArrival()
	}
	wallStart := time.Now()
	var iter int64
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
		// Next event time: earliest of arrival, completion, sample, window
		// boundary, fault boundary, end.
		t := s.cfg.Duration
		if s.hasPending && s.pendingArrival.Time < t {
			t = s.pendingArrival.Time
		}
		if s.nextSample < t {
			t = s.nextSample
		}
		if s.cfg.StreamWindow > 0 && s.nextWindow < t {
			t = s.nextWindow
		}
		if ct, ok := s.nextCompletionTime(); ok && ct < t {
			t = ct
		}
		faultBoundary := false
		if s.cfg.Faults != nil {
			if fb, ok := s.cfg.Faults.NextBoundaryAfter(s.now); ok && fb <= t {
				t = fb
				faultBoundary = true
			}
		}

		s.advanceTo(t)

		done := t >= s.cfg.Duration
		reschedule := false

		if faultBoundary {
			// The fault state changed (a link went down, recovered, or the
			// scheduler's reachability flipped): account the boundary and
			// force a fresh decision under the new conditions.
			ls, le, os, oe := s.cfg.Faults.TransitionsAt(s.now)
			s.res.Faults.LinkFaultStarts += int64(ls)
			s.res.Faults.LinkFaultEnds += int64(le)
			s.res.Faults.OutageStarts += int64(os)
			s.res.Faults.OutageEnds += int64(oe)
			if ls > 0 {
				s.cfg.Obs.Emit(s.now, "fault.link.start", -1, float64(ls), "")
			}
			if le > 0 {
				s.cfg.Obs.Emit(s.now, "fault.link.end", -1, float64(le), "")
			}
			if os > 0 {
				s.cfg.Obs.Emit(s.now, "fault.outage.start", -1, float64(os), "")
			}
			if oe > 0 {
				s.cfg.Obs.Emit(s.now, "fault.outage.end", -1, float64(oe), "")
			}
			reschedule = true
		}

		// Completions strictly before arrivals at the same instant: the
		// departing flow frees its ports for the newcomer's decision.
		if s.collectCompletions() {
			reschedule = true
		}
		for s.hasPending && s.pendingArrival.Time <= s.now+1e-12 && !done {
			if s.pendingArrival.Time < s.now-1e-9 {
				// The event loop always advances to the earliest pending
				// arrival, so an arrival in the past means the generator
				// violated its time-ordering contract.
				return nil, s.errorf("generator produced out-of-order arrival at t=%g",
					s.pendingArrival.Time)
			}
			if err := s.admit(s.pendingArrival); err != nil {
				return nil, err
			}
			s.fetchArrival()
			reschedule = true
		}
		if s.now >= s.nextSample {
			s.sample()
			s.nextSample += s.cfg.SampleInterval
			if wd := s.cfg.Watchdog; wd != nil && wd.MaxBacklogBytes > 0 {
				if backlog := s.table.TotalBacklog(); backlog > wd.MaxBacklogBytes {
					// Deferred to the next loop top (after this iteration's
					// reschedule) so the truncation Diagnosis can carry a
					// consistent, resumable checkpoint.
					s.pendingTruncate = "backlog-bound"
				}
			}
		}
		if s.cfg.StreamWindow > 0 {
			for s.now >= s.nextWindow {
				s.flushWindow()
				s.nextWindow += s.cfg.StreamWindow
			}
		}
		if done {
			if s.pendingTruncate != "" {
				return s.truncate(s.pendingTruncate), nil
			}
			break
		}
		if wd := s.cfg.Watchdog; wd != nil && wd.MaxWallClock > 0 && s.pendingTruncate == "" {
			if iter++; iter%wallClockCheckEvery == 0 && time.Since(wallStart) > wd.MaxWallClock {
				s.pendingTruncate = "wallclock-budget"
			}
		}
		if reschedule {
			if err := s.reschedule(); err != nil {
				return nil, err
			}
		}
	}
	return s.finish(), nil
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
	if ist := sched.IndexStatsOf(s.scheduler); ist.Repairs+ist.Rebuilds > 0 {
		s.reg.Counter("sched.index_repairs").Add(ist.Repairs)
		s.reg.Counter("sched.index_rebuilds").Add(ist.Rebuilds)
	}
	if d, ok := s.cfg.Scheduler.(interface{ TotalRounds() int64 }); ok {
		s.reg.Counter("sched.arbitration_rounds").Add(d.TotalRounds())
	}
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
	}
	if wd := s.cfg.Watchdog; wd != nil && wd.DiagnosisEvents >= 0 {
		k := wd.DiagnosisEvents
		if k == 0 {
			k = defaultDiagnosisEvents
		}
		res.Diagnosis.LastEvents = s.cfg.Obs.LastEvents(k)
		res.Diagnosis.Verbose = wd.VerboseDiagnosis
	}
	return res
}

// fetchArrival pulls the next arrival from the generator.
func (s *Sim) fetchArrival() {
	a, ok := s.cfg.Generator.Next()
	s.pendingArrival, s.hasPending = a, ok
}

// admit adds an arrived flow to the fabric. A malformed arrival means the
// generator violated its contract; the run fails with context rather than
// panicking mid-sweep.
func (s *Sim) admit(a workload.Arrival) error {
	if a.Src < 0 || a.Src >= s.cfg.Hosts || a.Dst < 0 || a.Dst >= s.cfg.Hosts || a.Src == a.Dst || a.Size <= 0 {
		return s.errorf("generator produced invalid arrival %+v", a)
	}
	var f *flow.Flow
	if s.poolOn {
		f = s.pool.Get(s.nextID, a.Src, a.Dst, a.Class, a.Size, a.Time)
	} else {
		f = flow.NewFlow(s.nextID, a.Src, a.Dst, a.Class, a.Size, a.Time)
	}
	s.nextID++
	s.table.Add(f)
	s.res.ArrivedFlows++
	s.res.ArrivedBytes += a.Size
	return nil
}

// flowRate returns f's current transmission rate in bytes/s: the access-
// link rate scaled by the worse of its two ports' surviving link
// fractions. Rates only change at fault boundaries, which are events, so
// a rate sampled at s.now is valid until the next event.
func (s *Sim) flowRate(f *flow.Flow) float64 {
	if s.cfg.Faults == nil {
		return s.byteRate
	}
	frac := s.cfg.Faults.LinkRateFraction(f.Src, s.now)
	if d := s.cfg.Faults.LinkRateFraction(f.Dst, s.now); d < frac {
		frac = d
	}
	return s.byteRate * frac
}

// nextCompletionTime returns when the earliest currently transmitting flow
// finishes, assuming the decision and fault state stay fixed. Flows on a
// fully failed link never complete on their own; a fault boundary or a
// new decision unblocks them. The value is the cache advanceTo and
// reschedule maintain — the decision is never rescanned here.
func (s *Sim) nextCompletionTime() (float64, bool) {
	if math.IsInf(s.nextCompletion, 1) {
		return 0, false
	}
	return s.nextCompletion, true
}

// advanceTo drains the transmitting flows up to time t, each at its
// current (possibly degraded) link rate, and refreshes the next-completion
// cache from the post-drain residuals in the same pass. Rates only change
// at fault boundaries, and every boundary forces a reschedule (which
// recomputes the cache), so the rates read here stay valid until the cache
// is next consulted.
func (s *Sim) advanceTo(t float64) {
	if t < s.now {
		t = s.now
	}
	dt := t - s.now
	if dt > 0 && len(s.decision) > 0 {
		var drained float64
		minTime := math.Inf(1)
		for _, f := range s.decision {
			if rate := s.flowRate(f); rate > 0 {
				drained += s.table.Drain(f, dt*rate)
				if left := f.Remaining / rate; left < minTime {
					minTime = left
				}
			}
		}
		if drained > 0 {
			s.res.Throughput.AddRange(s.now, t, drained)
			s.res.DepartedBytes += drained
		}
		s.nextCompletion = t + minTime
	}
	s.now = t
}

// completionThreshold returns the residual below which a flow counts as
// finished. The absolute floor handles normal completions; the adaptive
// term covers sub-byte residues whose drain time rounds to zero at large
// timestamps (float64 has ~1e-16 relative resolution, so any remainder
// that would take less than ~100 ULPs of `now` to drain is already
// indistinguishable from done and would otherwise stall the event loop).
func (s *Sim) completionThreshold() float64 {
	adaptive := s.byteRate * s.now * 1e-14
	if adaptive > completionEps {
		return adaptive
	}
	return completionEps
}

// collectCompletions removes flows that finished by now and records FCTs.
func (s *Sim) collectCompletions() bool {
	if len(s.decision) == 0 {
		return false
	}
	threshold := s.completionThreshold()
	kept := s.decision[:0]
	completed := false
	for _, f := range s.decision {
		if f.Remaining <= threshold {
			// Flush the sub-threshold residue so byte conservation
			// (arrived = departed + backlog) holds exactly.
			if residue := s.table.Drain(f, f.Remaining); residue > 0 {
				s.res.Throughput.AddBytes(s.now, residue)
				s.res.DepartedBytes += residue
			}
			s.table.Remove(f)
			s.res.CompletedFlows++
			s.res.FCT.Add(f.Class, s.now-f.Arrival)
			s.fctSum += s.now - f.Arrival
			s.cfg.Obs.Emit(s.now, "flow.done", f.Src, s.now-f.Arrival, f.Class.String())
			if s.poolOn {
				// The flow is detached and dropped from the compacted
				// decision; the scheduler's candidate index may still hold
				// its pointer but never dereferences entries of a dirtied
				// VOQ (Remove just dirtied this one), so recycling is safe.
				s.pool.Put(f)
			}
			completed = true
		} else {
			kept = append(kept, f)
		}
	}
	s.decision = kept
	return completed
}

// reschedule recomputes the scheduling decision. During an injected
// scheduler outage the fallback wrapper serves the held matching instead
// of consulting the unreachable scheduler (the dirty-VOQ feed then simply
// accumulates until the scheduler's index is reachable again).
func (s *Sim) reschedule() error {
	if s.fallback != nil {
		s.fallback.SetOutage(s.cfg.Faults.SchedulerDown(s.now))
	}
	span := obs.StartSpan(s.hDecisionNs)
	s.decision = s.scheduler.Schedule(s.table)
	s.cSchedNanos.Add(span.End())
	s.cDecisions.Inc()
	if s.clearsDirty {
		s.table.ClearDirty()
	}
	// Fresh decision, fresh completion horizon, at the rates in force now.
	minTime := math.Inf(1)
	for _, f := range s.decision {
		if rate := s.flowRate(f); rate > 0 {
			if left := f.Remaining / rate; left < minTime {
				minTime = left
			}
		}
	}
	s.nextCompletion = s.now + minTime
	if s.cfg.ValidateDecisions {
		if err := s.validator.ValidateDecision(s.cfg.Hosts, s.decision); err != nil {
			return s.errorf("%w", err)
		}
	}
	if k := s.cfg.DeepValidateEvery; k > 0 && s.cDecisions.Value()%k == 0 {
		if err := s.deepValidate(); err != nil {
			return s.errorf("%w", err)
		}
	}
	return nil
}

// deepValidate recomputes every backlog aggregate from the live flows,
// compares against the table's incremental accounting, and cross-checks
// the scheduler's incremental candidate index (when it maintains one)
// against a from-scratch view of the table.
func (s *Sim) deepValidate() error {
	n := s.cfg.Hosts
	if cap(s.dvIngress) < n {
		s.dvIngress = make([]float64, n)
		s.dvEgress = make([]float64, n)
	}
	ingress := s.dvIngress[:n]
	egress := s.dvEgress[:n]
	for i := range ingress {
		ingress[i] = 0
		egress[i] = 0
	}
	var total float64
	flows := 0
	var err error
	s.table.ForEachVOQ(func(q *flow.VOQ) {
		if err != nil {
			return
		}
		i, j := q.Src, q.Dst
		var qSum float64
		top := q.Top()
		q.ForEachFlow(func(f *flow.Flow) {
			if err != nil {
				return
			}
			switch {
			case !f.Attached():
				err = fmt.Errorf("deep validate: VOQ (%d,%d) holds detached flow %d (remaining %g)",
					i, j, f.ID, f.Remaining)
			case f.Src != i || f.Dst != j:
				err = fmt.Errorf("deep validate: VOQ (%d,%d) holds misfiled flow %d addressed %d->%d",
					i, j, f.ID, f.Src, f.Dst)
			case f.Remaining < 0:
				err = fmt.Errorf("deep validate: VOQ (%d,%d) flow %d has negative remaining %g",
					i, j, f.ID, f.Remaining)
			case f.Remaining < top.Remaining:
				err = fmt.Errorf("deep validate: VOQ (%d,%d) top is flow %d (remaining %g) but flow %d has %g",
					i, j, top.ID, top.Remaining, f.ID, f.Remaining)
			default:
				qSum += f.Remaining
				flows++
			}
		})
		if err == nil && !closeEnough(qSum, q.Backlog()) {
			err = fmt.Errorf("deep validate: VOQ (%d,%d) backlog %g, recomputed %g", i, j, q.Backlog(), qSum)
		}
		ingress[i] += qSum
		egress[j] += qSum
		total += qSum
	})
	if err != nil {
		return err
	}
	for p := 0; p < n; p++ {
		if !closeEnough(ingress[p], s.table.IngressBacklog(p)) {
			return fmt.Errorf("deep validate: ingress %d backlog %g, recomputed %g", p, s.table.IngressBacklog(p), ingress[p])
		}
		if !closeEnough(egress[p], s.table.EgressBacklog(p)) {
			return fmt.Errorf("deep validate: egress %d backlog %g, recomputed %g", p, s.table.EgressBacklog(p), egress[p])
		}
	}
	if !closeEnough(total, s.table.TotalBacklog()) {
		return fmt.Errorf("deep validate: total backlog %g, recomputed %g", s.table.TotalBacklog(), total)
	}
	if flows != s.table.NumFlows() {
		return fmt.Errorf("deep validate: %d flows counted, table reports %d", flows, s.table.NumFlows())
	}
	if !closeEnough(s.res.ArrivedBytes, s.res.DepartedBytes+total) {
		return fmt.Errorf("deep validate: conservation broken (arrived %g, departed %g, backlog %g)",
			s.res.ArrivedBytes, s.res.DepartedBytes, total)
	}
	if err := sched.CheckIndex(s.scheduler, s.table); err != nil {
		return fmt.Errorf("deep validate: %w", err)
	}
	return nil
}

// closeEnough compares accumulated float quantities with a relative
// tolerance sized for long runs of incremental adds/subtracts.
func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-6*scale
}

// sample records the queue-length series and the matching trace events.
// When the run is instrumented it also snapshots the Go runtime's GC
// state into gauges, so a trace can correlate backlog spikes with
// collection activity. The GC numbers are machine-dependent, which is why
// they live only in registry gauges (never in trace events, whose byte-
// determinism the trace contract guarantees) and only when the caller
// opted into observability.
func (s *Sim) sample() {
	queue := s.table.IngressBacklog(s.cfg.MonitorPort)
	total := s.table.TotalBacklog()
	maxPort, maxB := s.table.MaxIngressBacklog()
	s.res.QueueSeries.Add(s.now, queue)
	s.res.TotalBacklogSeries.Add(s.now, total)
	s.res.MaxPortSeries.Add(s.now, maxB)
	s.cfg.Obs.Emit(s.now, "sample.queue", s.cfg.MonitorPort, queue, "")
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
}
