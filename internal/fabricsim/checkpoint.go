package fabricsim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"basrpt/internal/checkpoint"
	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/workload"
)

// arbStater is the distributed-arbitration counter surface (implemented
// by sched.Distributed) the checkpoint carries across a resume.
type arbStater interface {
	ArbitrationState() (rounds, grantsLost int64)
	RestoreArbitrationState(rounds, grantsLost int64)
}

// Checkpoint captures and encodes the simulator's full state. It is only
// meaningful at an event-loop top (the run loop and truncation paths call
// it exactly there); the capture itself is read-only.
func (s *Sim) Checkpoint() ([]byte, error) {
	st, err := s.captureState()
	if err != nil {
		return nil, err
	}
	return checkpoint.Encode(st)
}

// Resume reconstructs a simulator from a checkpoint taken by a run with
// an equivalent configuration and rewinds it to the captured instant;
// calling Run then continues bit-for-bit — same Result, same trace events
// — as the uninterrupted run. The configuration may differ only in fields
// outside the digest: watchdog bounds (so a truncated run can resume with
// relaxed limits), checkpoint cadence/sink, observability handle,
// validation knobs.
func Resume(cfg Config, data []byte) (*Sim, error) {
	st, err := checkpoint.Decode(data)
	if err != nil {
		return nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.restoreState(st); err != nil {
		return nil, err
	}
	s.resumed = true
	return s, nil
}

// stopAtCheckpoint seals a run halted by ErrStopAfterCheckpoint. Unlike
// truncate it emits NO trace event: the halt is invisible to the event
// stream, which is what makes a halted trace plus its continuation
// byte-identical to the uninterrupted trace.
func (s *Sim) stopAtCheckpoint(data []byte) *Result {
	res := s.finish()
	res.Duration = s.now
	res.Diagnosis = &Diagnosis{
		Reason:       "checkpoint-stop",
		SimTime:      s.now,
		BacklogBytes: res.LeftoverBytes,
		Events:       res.Decisions,
		Seed:         s.cfg.Seed,
		TableEpoch:   s.table.Epoch(),
		Checkpoint:   data,
	}
	return res
}

// flushWindow emits one streaming-results window: completions, goodput,
// and mean FCT over the window just ended (cumulative deltas against the
// previous flush) plus the instantaneous fabric backlog.
func (s *Sim) flushWindow() {
	completed := s.res.CompletedFlows - s.winCompleted0
	departed := s.res.DepartedBytes - s.winDeparted0
	fctSum := s.fctSum - s.winFCTSum0
	s.cfg.Obs.Emit(s.now, "window.completed", -1, float64(completed), "")
	s.cfg.Obs.Emit(s.now, "window.gbps", -1, departed*8/s.cfg.StreamWindow/1e9, "")
	var avgMs float64
	if completed > 0 {
		avgMs = fctSum / float64(completed) * 1e3
	}
	s.cfg.Obs.Emit(s.now, "window.fct_avg_ms", -1, avgMs, "")
	s.cfg.Obs.Emit(s.now, "window.backlog", -1, s.table.TotalBacklog(), "")
	s.winCompleted0 = s.res.CompletedFlows
	s.winDeparted0 = s.res.DepartedBytes
	s.winFCTSum0 = s.fctSum
}

// captureState assembles the checkpoint payload from live state.
func (s *Sim) captureState() (*checkpoint.State, error) {
	gen, ok := s.cfg.Generator.(workload.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("generator %T does not support checkpointing", s.cfg.Generator)
	}
	genState, err := gen.CheckpointState()
	if err != nil {
		return nil, err
	}
	st := &checkpoint.State{
		ConfigDigest:   s.configDigest(),
		SimTime:        s.now,
		NextID:         int64(s.nextID),
		NextSample:     s.nextSample,
		ArrivedFlows:   s.res.ArrivedFlows,
		CompletedFlows: s.res.CompletedFlows,
		ArrivedBytes:   s.res.ArrivedBytes,
		DepartedBytes:  s.res.DepartedBytes,
		FCTSum:         s.fctSum,
		FaultCounters:  s.res.Faults,
		FCT:            s.res.FCT.StateSnapshot(),
		Throughput:     s.res.Throughput.StateSnapshot(),

		QueueSeries:        s.res.QueueSeries,
		TotalBacklogSeries: s.res.TotalBacklogSeries,
		MaxPortSeries:      s.res.MaxPortSeries,

		Table:     s.table.StateSnapshot(),
		Generator: genState,
		Registry:  s.reg.Snapshot().Filter(deterministicObsName),
		Tracer:    s.cfg.Obs.StateSnapshot(),
	}
	if !math.IsInf(s.nextCompletion, 1) {
		st.HasNextCompletion = true
		st.NextCompletion = s.nextCompletion
	}
	if s.hasPending {
		st.HasPending = true
		st.PendingArrival = s.pendingArrival
	}
	if s.cfg.StreamWindow > 0 {
		st.Stream = &checkpoint.StreamState{
			NextWindow:       s.nextWindow,
			FlushedDeparted:  s.winDeparted0,
			FlushedCompleted: s.winCompleted0,
			FlushedFCTSum:    s.winFCTSum0,
		}
	}
	for _, f := range s.decision {
		st.Decision = append(st.Decision, int64(f.ID))
	}
	if s.poolOn {
		st.PoolFree = s.pool.Len()
		st.PoolReuses = s.pool.Reuses()
	}
	if s.cfg.Faults != nil {
		is := s.cfg.Faults.StateSnapshot()
		st.Injector = &is
	}
	if s.fallback != nil {
		fs := s.fallback.StateSnapshot()
		st.Fallback = &fs
	}
	var ss checkpoint.SchedState
	hasSched := false
	if a, ok := s.cfg.Scheduler.(arbStater); ok {
		ss.Rounds, ss.GrantsLost = a.ArbitrationState()
		hasSched = true
	}
	if r, ok := s.cfg.Scheduler.(sched.RNGScheduler); ok {
		ss.HasRNG = true
		ss.RNG = r.RNGState()
		hasSched = true
	}
	if hasSched {
		st.Sched = &ss
	}
	return st, nil
}

// restoreState rewinds a freshly-built Sim to a decoded snapshot. Every
// structural mismatch between the snapshot and the configuration is a
// hard error — a silent partial restore would produce plausible-looking
// wrong results, the worst failure mode a determinism contract can have.
func (s *Sim) restoreState(st *checkpoint.State) error {
	if want, got := s.configDigest(), st.ConfigDigest; got != want {
		return fmt.Errorf("%w: checkpoint digest %s, configuration digest %s",
			checkpoint.ErrConfigMismatch, got, want)
	}
	gen, ok := s.cfg.Generator.(workload.Checkpointable)
	if !ok {
		return fmt.Errorf("fabricsim: resume: generator %T does not support checkpointing", s.cfg.Generator)
	}
	if st.Generator == nil {
		return fmt.Errorf("fabricsim: resume: checkpoint has no generator state")
	}
	if st.Table.N != s.cfg.Hosts {
		return fmt.Errorf("%w: checkpoint table has %d ports, fabric has %d",
			checkpoint.ErrConfigMismatch, st.Table.N, s.cfg.Hosts)
	}
	if (s.cfg.StreamWindow > 0) != (st.Stream != nil) {
		return fmt.Errorf("%w: streaming-mode state mismatch", checkpoint.ErrConfigMismatch)
	}
	if (s.cfg.Faults != nil) != (st.Injector != nil) {
		return fmt.Errorf("%w: fault-injector state mismatch", checkpoint.ErrConfigMismatch)
	}
	table, byID, err := flow.RestoreTable(st.Table)
	if err != nil {
		return fmt.Errorf("fabricsim: resume: %w", err)
	}
	fct, err := metrics.RestoreFCT(st.FCT)
	if err != nil {
		return fmt.Errorf("fabricsim: resume: %w", err)
	}
	thr, err := metrics.RestoreThroughput(st.Throughput)
	if err != nil {
		return fmt.Errorf("fabricsim: resume: %w", err)
	}
	queueSeries, err := restoreSeries("queue", st.QueueSeries)
	if err != nil {
		return err
	}
	totalSeries, err := restoreSeries("total-backlog", st.TotalBacklogSeries)
	if err != nil {
		return err
	}
	maxSeries, err := restoreSeries("max-port", st.MaxPortSeries)
	if err != nil {
		return err
	}
	decision := make([]*flow.Flow, 0, len(st.Decision))
	for _, id := range st.Decision {
		f := byID[flow.ID(id)]
		if f == nil {
			return fmt.Errorf("fabricsim: resume: decision references unknown flow %d", id)
		}
		decision = append(decision, f)
	}
	if err := gen.RestoreCheckpoint(st.Generator); err != nil {
		return fmt.Errorf("fabricsim: resume: %w", err)
	}
	if st.Injector != nil {
		if err := s.cfg.Faults.RestoreState(*st.Injector); err != nil {
			return fmt.Errorf("fabricsim: resume: %w", err)
		}
	}
	if (s.fallback != nil) != (st.Fallback != nil) {
		return fmt.Errorf("%w: outage-fallback state mismatch", checkpoint.ErrConfigMismatch)
	}
	if st.Fallback != nil {
		if err := s.fallback.RestoreState(*st.Fallback, func(id flow.ID) *flow.Flow {
			return byID[id]
		}); err != nil {
			return fmt.Errorf("fabricsim: resume: %w", err)
		}
	}
	arb, isArb := s.cfg.Scheduler.(arbStater)
	rng, isRNG := s.cfg.Scheduler.(sched.RNGScheduler)
	if (isArb || isRNG) != (st.Sched != nil) {
		return fmt.Errorf("%w: scheduler state mismatch", checkpoint.ErrConfigMismatch)
	}
	if st.Sched != nil {
		if isRNG != st.Sched.HasRNG {
			return fmt.Errorf("%w: scheduler RNG state mismatch", checkpoint.ErrConfigMismatch)
		}
		if isArb {
			arb.RestoreArbitrationState(st.Sched.Rounds, st.Sched.GrantsLost)
		}
		if isRNG {
			if err := rng.RestoreRNGState(st.Sched.RNG); err != nil {
				return fmt.Errorf("fabricsim: resume: %w", err)
			}
		}
	}
	if err := s.reg.RestoreState(st.Registry); err != nil {
		return fmt.Errorf("fabricsim: resume: %w", err)
	}
	if s.cfg.Obs != nil && st.Tracer != nil {
		if err := s.cfg.Obs.RestoreState(st.Tracer); err != nil {
			return fmt.Errorf("fabricsim: resume: %w", err)
		}
	}
	// All validation passed: commit the scalar state.
	s.table = table
	s.now = st.SimTime
	s.nextID = flow.ID(st.NextID)
	s.nextSample = st.NextSample
	s.nextCompletion = math.Inf(1)
	if st.HasNextCompletion {
		s.nextCompletion = st.NextCompletion
	}
	s.hasPending = st.HasPending
	s.pendingArrival = workload.Arrival{}
	if st.HasPending {
		s.pendingArrival = st.PendingArrival
	}
	s.decision = decision
	s.res.ArrivedFlows = st.ArrivedFlows
	s.res.CompletedFlows = st.CompletedFlows
	s.res.ArrivedBytes = st.ArrivedBytes
	s.res.DepartedBytes = st.DepartedBytes
	s.fctSum = st.FCTSum
	s.res.Faults = st.FaultCounters
	s.res.FCT = fct
	s.res.Throughput = thr
	s.res.QueueSeries = queueSeries
	s.res.TotalBacklogSeries = totalSeries
	s.res.MaxPortSeries = maxSeries
	if st.Stream != nil {
		s.nextWindow = st.Stream.NextWindow
		s.winDeparted0 = st.Stream.FlushedDeparted
		s.winCompleted0 = st.Stream.FlushedCompleted
		s.winFCTSum0 = st.Stream.FlushedFCTSum
	}
	if s.poolOn {
		s.pool.RestoreState(st.PoolFree, st.PoolReuses)
	}
	// The next periodic checkpoint boundary is re-derived by the same
	// incremental additions the uninterrupted run performs, so the two
	// runs cross identical (bit-for-bit) boundary values.
	if s.cfg.CheckpointEvery > 0 {
		s.nextCheckpoint = s.cfg.CheckpointEvery
		for s.nextCheckpoint <= s.now {
			s.nextCheckpoint += s.cfg.CheckpointEvery
		}
	}
	return nil
}

// restoreSeries validates and copies a serialized series (times must be
// non-decreasing — the same invariant Series.Add enforces with a panic).
func restoreSeries(name string, st metrics.Series) (metrics.Series, error) {
	if len(st.Times) != len(st.Values) {
		return metrics.Series{}, fmt.Errorf("fabricsim: resume: %s series has %d times, %d values",
			name, len(st.Times), len(st.Values))
	}
	for i := 1; i < len(st.Times); i++ {
		if st.Times[i] < st.Times[i-1] {
			return metrics.Series{}, fmt.Errorf("fabricsim: resume: %s series time regresses at index %d", name, i)
		}
	}
	return metrics.Series{
		Times:  append([]float64(nil), st.Times...),
		Values: append([]float64(nil), st.Values...),
	}, nil
}

// configDigest fingerprints the parts of the configuration a checkpoint
// depends on. Watchdog bounds, checkpoint cadence, validation knobs, and
// the observability handle are deliberately excluded — changing them must
// not invalidate a resume (relaxing the watchdog after a truncation is
// the whole point). Generator internals cannot be introspected; their
// compatibility is enforced structurally by the generator's own restore
// validation, keyed through Seed and the scheduler/fabric shape here.
func (s *Sim) configDigest() string {
	// keep is the FCT tail bound, which streaming mode alone applies.
	keep := 0
	if s.cfg.StreamWindow > 0 {
		keep = streamKeep
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "hosts=%d|link=%g|dur=%g|sample=%g|monitor=%d|bucket=%g|seed=%d|sched=%s|pool=%t|window=%g|keep=%d|",
		s.cfg.Hosts, s.cfg.LinkBps, s.cfg.Duration, s.cfg.SampleInterval, monitorPort,
		s.cfg.ThroughputBucket, s.cfg.Seed, s.res.SchedulerName, s.poolOn, s.cfg.StreamWindow, keep)
	if s.cfg.Faults != nil {
		fmt.Fprintf(h, "faults=%s|", s.cfg.Faults.Schedule().String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// DeterministicDigest hashes every machine-independent field of the
// Result into a short hex fingerprint: two runs of the same seeded
// configuration — including a checkpointed-and-resumed run versus its
// uninterrupted twin — produce equal digests. Wall-clock-derived values
// (SchedNanos, the decision-latency histogram, runtime.* gauges) and the
// incremental-index repair counters (a resumed scheduler rebuilds its
// index from scratch, so its repair counts legitimately differ) are
// excluded.
func (r *Result) DeterministicDigest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "sched=%s|dur=%.17g|arrived=%d|completed=%d|abytes=%.17g|dbytes=%.17g|leftb=%.17g|leftf=%d|decisions=%d|",
		r.SchedulerName, r.Duration, r.ArrivedFlows, r.CompletedFlows,
		r.ArrivedBytes, r.DepartedBytes, r.LeftoverBytes, r.LeftoverFlows, r.Decisions)
	fmt.Fprintf(h, "faults=%+v|", r.Faults)
	writeJSON(h, r.FCT.StateSnapshot())
	writeJSON(h, r.Throughput.StateSnapshot())
	writeJSON(h, r.QueueSeries)
	writeJSON(h, r.TotalBacklogSeries)
	writeJSON(h, r.MaxPortSeries)
	if d := r.Diagnosis; d != nil {
		fmt.Fprintf(h, "diag=%s|t=%.17g|backlog=%.17g|events=%d|epoch=%d|",
			d.Reason, d.SimTime, d.BacklogBytes, d.Events, d.TableEpoch)
		writeJSON(h, d.LastEvents)
	}
	det := r.Obs.Filter(deterministicObsName)
	for _, c := range det.Counters {
		fmt.Fprintf(h, "c:%s=%d|", c.Name, c.Value)
	}
	for _, g := range det.Gauges {
		fmt.Fprintf(h, "g:%s=%.17g/%.17g|", g.Name, g.Value, g.Max)
	}
	for _, hs := range det.Histograms {
		writeJSON(h, hs)
	}
	// Per-cell deterministic-plane snapshots (decomposed runs): folding
	// them in machine-checks the per-cell attribution contract — the same
	// grouping invariance the top-level counters already get.
	for i, cell := range r.ShardObs {
		cell = cell.Filter(deterministicObsName)
		for _, c := range cell.Counters {
			fmt.Fprintf(h, "s%d:c:%s=%d|", i, c.Name, c.Value)
		}
		for _, g := range cell.Gauges {
			fmt.Fprintf(h, "s%d:g:%s=%.17g/%.17g|", i, g.Name, g.Value, g.Max)
		}
		for _, hs := range cell.Histograms {
			fmt.Fprintf(h, "s%d:h:", i)
			writeJSON(h, hs)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// deterministicObsName reports whether a registry entry is stable across
// machines and across checkpoint/resume. The wall-clock observability
// plane ("wall." and "runtime." names, see obs.IsWallClock) is excluded
// wholesale; a few older wall-clock-derived names predate the naming
// convention and are excluded individually. Checkpoints keep only these
// entries: the others carry no resumable information (the resumed
// process re-measures its own machine), and dropping them makes the
// checkpoint bytes themselves deterministic.
func deterministicObsName(name string) bool {
	if obs.IsWallClock(name) {
		return false
	}
	switch name {
	case "fabric.sched_nanos", "fabric.decision_ns", "sched.index_repairs", "sched.index_rebuilds":
		return false
	}
	return true
}

func writeJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Every value marshaled here is a plain data struct; failure means
		// a programming error, and a digest built from partial input would
		// silently compare equal to the wrong things.
		panic(fmt.Sprintf("fabricsim: digest marshal: %v", err))
	}
	w.Write(b)
	w.Write([]byte{'|'})
}
