package fabricsim

import (
	"fmt"
	"math"
	"time"

	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
)

// cell is the flow-level physics both engines run: one VOQ table, the
// scheduler that matches it, and the primitives that move it from one
// event to the next — admit a flow, drain the transmitting flows, collect
// completions, recompute the decision. The centralized engine (Sim)
// drives one cell spanning every host; the decomposed engine drives one
// per rack (shardCell). Each engine owns its calendar — which event
// comes next, when to sample, when to stop — and the cell owns what
// happens at an event, so both engines share one physics.
type cell struct {
	table *flow.Table
	now   float64

	// scheduler is the configured discipline, wrapped in fallback when
	// faults are injected: during a scheduler outage the fallback serves
	// the held matching. clearsDirty: the scheduler does not consume the
	// table's dirty-VOQ feed (see the flow package's change-tracking
	// contract), so the cell is the consumer of record and clears the feed
	// after every decision to keep it from growing without bound.
	scheduler   sched.Scheduler
	fallback    *sched.OutageFallback
	clearsDirty bool

	decision []*flow.Flow
	byteRate float64 // bytes/s per selected flow at full link rate
	// nextCompletion caches the absolute time the earliest transmitting
	// flow finishes (+Inf: none will on its own). advanceTo refreshes it
	// during its drain pass and reschedule after each new decision, so the
	// engines read it instead of rescanning the decision every event.
	nextCompletion float64

	// faults degrades link rates and takes the scheduler down; nil in rack
	// cells.
	faults *faults.Injector

	// Steady-state allocation avoidance: completed flows recycle through
	// pool into the next arrivals, decisions are re-checked by a
	// scratch-owning validator, and deepValidate keeps its per-port
	// accumulators across calls. Recycling is invisible to the physics
	// (TestFlowPoolEquivalence). poolOn is false under faults: the outage
	// fallback's held matching retains flow pointers across completions,
	// which recycling would invalidate.
	pool      flow.FreeList
	poolOn    bool
	validate  bool  // re-check the crossbar constraint on every decision
	deepEvery int64 // deepValidate every this many decisions (0: never)
	validator sched.Validator
	dvIngress []float64
	dvEgress  []float64

	// res accumulates the run's metrics: arrivals, departures, throughput,
	// and FCTs. done, when non-nil, sees every completed flow before it is
	// recycled — the centralized engine emits flow.done there, a traced
	// rack cell buffers the event for the barrier replay.
	res  *Result
	done func(f *flow.Flow, fct float64)

	// Decision counters, resolved from the engine's registry. The latency
	// histogram is nil in rack cells, which run concurrently.
	cDecisions  *obs.Counter
	cSchedNanos *obs.Counter // wall clock
	hDecisionNs *obs.Histogram
}

// newCell builds a cell over a fresh ports-wide table. A non-nil injector
// wraps the scheduler in the outage fallback and turns the flow pool off.
func newCell(ports int, byteRate float64, s sched.Scheduler, inj *faults.Injector, res *Result) cell {
	c := cell{
		table:          flow.NewTable(ports),
		scheduler:      s,
		byteRate:       byteRate,
		nextCompletion: math.Inf(1),
		faults:         inj,
		poolOn:         inj == nil,
		res:            res,
	}
	if inj != nil {
		c.fallback = sched.NewOutageFallback(s)
		c.scheduler = c.fallback
	}
	c.clearsDirty = !sched.IsDirtyConsumer(c.scheduler)
	return c
}

// add admits one flow and accounts its arrival.
func (c *cell) add(id flow.ID, src, dst int, class flow.Class, size, arrival float64) {
	var f *flow.Flow
	if c.poolOn {
		f = c.pool.Get(id, src, dst, class, size, arrival)
	} else {
		f = flow.NewFlow(id, src, dst, class, size, arrival)
	}
	c.table.Add(f)
	c.res.ArrivedFlows++
	c.res.ArrivedBytes += size
}

// rate returns f's current transmission rate in bytes/s. Rates only change
// at fault boundaries, which are events, so a rate read at c.now holds
// until the next event. It stays small enough to inline into the drain
// loops; the fault path lives in faultRate.
func (c *cell) rate(f *flow.Flow) float64 {
	if c.faults == nil {
		return c.byteRate
	}
	return c.faultRate(f)
}

// faultRate is the access-link rate scaled by the worse of f's two ports'
// surviving link fractions.
func (c *cell) faultRate(f *flow.Flow) float64 {
	frac := c.faults.LinkRateFraction(f.Src, c.now)
	if d := c.faults.LinkRateFraction(f.Dst, c.now); d < frac {
		frac = d
	}
	return c.byteRate * frac
}

// advanceTo drains the transmitting flows up to time t, each at its
// current rate, and refreshes the next-completion cache from the
// post-drain residuals in the same pass. Every fault boundary forces a
// reschedule (which recomputes the cache), so the rates read here stay
// valid until the cache is next consulted.
func (c *cell) advanceTo(t float64) {
	if t < c.now {
		t = c.now
	}
	dt := t - c.now
	if dt > 0 && len(c.decision) > 0 {
		var drained float64
		minTime := math.Inf(1)
		for _, f := range c.decision {
			if rate := c.rate(f); rate > 0 {
				drained += c.table.Drain(f, dt*rate)
				if left := f.Remaining / rate; left < minTime {
					minTime = left
				}
			}
		}
		if drained > 0 {
			c.res.Throughput.AddRange(c.now, t, drained)
			c.res.DepartedBytes += drained
		}
		c.nextCompletion = t + minTime
	}
	c.now = t
}

// completionThreshold returns the residual below which a flow counts as
// finished. The absolute floor handles normal completions; the adaptive
// term covers sub-byte residues whose drain time rounds to zero at large
// timestamps (float64 has ~1e-16 relative resolution, so any remainder
// that would take less than ~100 ULPs of `now` to drain is already
// indistinguishable from done and would otherwise stall the event loop).
func (c *cell) completionThreshold() float64 {
	adaptive := c.byteRate * c.now * 1e-14
	if adaptive > completionEps {
		return adaptive
	}
	return completionEps
}

// collectCompletions removes the flows that finished by now, records
// their FCTs, and reports whether any did.
func (c *cell) collectCompletions() bool {
	if len(c.decision) == 0 {
		return false
	}
	threshold := c.completionThreshold()
	kept := c.decision[:0]
	completed := false
	for _, f := range c.decision {
		if f.Remaining <= threshold {
			// Flush the sub-threshold residue so byte conservation
			// (arrived = departed + backlog) holds exactly.
			if residue := c.table.Drain(f, f.Remaining); residue > 0 {
				c.res.Throughput.AddBytes(c.now, residue)
				c.res.DepartedBytes += residue
			}
			c.table.Remove(f)
			c.res.CompletedFlows++
			fct := c.now - f.Arrival
			c.res.FCT.Add(f.Class, fct)
			if c.done != nil {
				c.done(f, fct)
			}
			if c.poolOn {
				// The flow is detached and dropped from the compacted
				// decision; the scheduler's candidate index may still hold
				// its pointer but never dereferences entries of a dirtied
				// VOQ (Remove just dirtied this one), so recycling is safe.
				c.pool.Put(f)
			}
			completed = true
		} else {
			kept = append(kept, f)
		}
	}
	c.decision = kept
	return completed
}

// reschedule recomputes the decision and its completion horizon at the
// rates in force now. During an injected scheduler outage the fallback
// serves the held matching instead of consulting the unreachable
// scheduler (the dirty-VOQ feed then simply accumulates until the
// scheduler's index is reachable again). A validation failure is returned
// bare; each engine wraps it in its own replay context.
func (c *cell) reschedule() error {
	if c.fallback != nil {
		c.fallback.SetOutage(c.faults.SchedulerDown(c.now))
	}
	start := time.Now()
	c.decision = c.scheduler.Schedule(c.table)
	ns := time.Since(start).Nanoseconds()
	c.cSchedNanos.Add(ns)
	c.hDecisionNs.Observe(float64(ns))
	c.cDecisions.Inc()
	if c.clearsDirty {
		c.table.ClearDirty()
	}
	minTime := math.Inf(1)
	for _, f := range c.decision {
		if rate := c.rate(f); rate > 0 {
			if left := f.Remaining / rate; left < minTime {
				minTime = left
			}
		}
	}
	c.nextCompletion = c.now + minTime
	if c.validate {
		if err := c.validator.ValidateDecision(c.table.N(), c.decision); err != nil {
			return err
		}
	}
	if c.deepEvery > 0 && c.cDecisions.Value()%c.deepEvery == 0 {
		return c.deepValidate()
	}
	return nil
}

// deepValidate recomputes every backlog aggregate from the live flows,
// compares against the table's incremental accounting, and cross-checks
// the scheduler's incremental candidate index (when it maintains one)
// against a from-scratch view of the table.
func (c *cell) deepValidate() error {
	n := c.table.N()
	if cap(c.dvIngress) < n {
		c.dvIngress = make([]float64, n)
		c.dvEgress = make([]float64, n)
	}
	ingress := c.dvIngress[:n]
	egress := c.dvEgress[:n]
	for i := range ingress {
		ingress[i] = 0
		egress[i] = 0
	}
	var total float64
	flows := 0
	var err error
	c.table.ForEachVOQ(func(q *flow.VOQ) {
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
		if !closeEnough(ingress[p], c.table.IngressBacklog(p)) {
			return fmt.Errorf("deep validate: ingress %d backlog %g, recomputed %g", p, c.table.IngressBacklog(p), ingress[p])
		}
		if !closeEnough(egress[p], c.table.EgressBacklog(p)) {
			return fmt.Errorf("deep validate: egress %d backlog %g, recomputed %g", p, c.table.EgressBacklog(p), egress[p])
		}
	}
	if !closeEnough(total, c.table.TotalBacklog()) {
		return fmt.Errorf("deep validate: total backlog %g, recomputed %g", c.table.TotalBacklog(), total)
	}
	if flows != c.table.NumFlows() {
		return fmt.Errorf("deep validate: %d flows counted, table reports %d", flows, c.table.NumFlows())
	}
	if !closeEnough(c.res.ArrivedBytes, c.res.DepartedBytes+total) {
		return fmt.Errorf("deep validate: conservation broken (arrived %g, departed %g, backlog %g)",
			c.res.ArrivedBytes, c.res.DepartedBytes, total)
	}
	if err := sched.CheckIndex(c.scheduler, c.table); err != nil {
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

// recordSchedStats adds one scheduler's once-per-run counters to reg:
// the candidate index's repairs and rebuilds when it kept an index, and
// the request/grant rounds when it arbitrates (dist-basrpt). It returns
// the control messages the arbitration lost, for Result.Faults. The
// decomposed engine calls it once per cell, in rack order, so the
// registry and the result hold the fabric's sums.
func recordSchedStats(reg *obs.Registry, s sched.Scheduler) (grantsLost int64) {
	if ist := sched.IndexStatsOf(s); ist.Repairs+ist.Rebuilds > 0 {
		reg.Counter("sched.index_repairs").Add(ist.Repairs)
		reg.Counter("sched.index_rebuilds").Add(ist.Rebuilds)
	}
	if d, ok := s.(*sched.Distributed); ok {
		reg.Counter("sched.arbitration_rounds").Add(d.TotalRounds())
		return d.GrantsLost()
	}
	return 0
}
