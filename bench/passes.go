package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"time"

	"basrpt/internal/fabricsim"
	"basrpt/internal/obs"
)

// minReps is the fewest measured repetitions an end-to-end pass takes,
// however short its time budget.
const minReps = 3

// Extra setup-only constructions top up setup_s: until at least
// minSetups samples exist and minSetupProbeS seconds went into them. A
// 144-host setup takes about a millisecond, so one sample per
// repetition would leave its median noisy.
const (
	minSetups      = 9
	minSetupProbeS = 0.5
)

// gate runs repetitions and counts the ones that fail: an error, or a
// DeterministicDigest other than the pin. Without a pin the first
// repetition's digest becomes the one every later repetition must match.
type gate struct {
	want      string
	attempted int
	failed    int
}

func newGate(s spec, seed uint64) *gate {
	if seed == pinnedSeed {
		return &gate{want: s.pin}
	}
	return &gate{}
}

// run settles the heap, runs one repetition, and checks it. It returns
// nil for a failed repetition.
func (g *gate) run(s spec, rc repConfig) *rep {
	// Start every repetition from a collected heap that has been returned
	// to the OS, so one repetition's garbage (1.5 GB of VOQ table at
	// 4128 hosts) neither burdens the next one's collector nor stacks up.
	debug.FreeOSMemory()
	g.attempted++
	r, err := runRep(s, rc)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
	case g.want == "":
		g.want = r.digest
		return r
	case r.digest != g.want:
		fmt.Fprintf(os.Stderr, "bench: %s: digest %s, want %s\n", s.name, r.digest, g.want)
	default:
		return r
	}
	g.failed++
	return nil
}

// metric is one reported number. End-to-end metrics carry the median in
// Value plus the max and sample count; per-layer metrics a single value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

func summarize(name, unit string, xs []float64) metric {
	m := metric{Name: name, Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m.Value = median(s)
	m.Max = s[len(s)-1]
	return m
}

// median of sorted xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// endToEnd runs one discarded warm-up repetition, then measured ones
// until seconds have passed, and reports the three end-to-end metrics.
func endToEnd(s spec, seed uint64, seconds float64, g *gate) []metric {
	rc := repConfig{seed: seed}
	g.run(s, rc)
	var rates, setups, heaps []float64
	start := time.Now()
	for n := 0; n < minReps || time.Since(start).Seconds() < seconds; n++ {
		r := g.run(s, rc)
		if r == nil {
			continue
		}
		rates = append(rates, float64(r.decisions)/r.runS)
		setups = append(setups, r.setupS)
		heaps = append(heaps, float64(r.heapLive)/1e6)
	}
	if s.engine == centralized {
		probeStart := time.Now()
		for len(setups) < minSetups || time.Since(probeStart).Seconds() < minSetupProbeS {
			debug.FreeOSMemory()
			t, err := setupOnly(s, seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: setup: %v\n", s.name, err)
				break
			}
			setups = append(setups, t)
		}
	}
	return []metric{
		summarize("decisions_per_s", "1/s", rates),
		summarize("setup_s", "s", setups),
		summarize("heap_live_mb", "MB", heaps),
	}
}

// perLayer runs the traced pass: a warm-up, an untraced reference
// repetition, and one traced repetition; plus, for the traced workload,
// the same traced repetition without its event trace, and for the
// decomposed engine, one untraced repetition on a single worker. Numbers
// the engines keep on their own (scheduler time, the decision-latency
// histogram, shard imbalance, allocation, setup split) come from the
// untraced reference; the traced repetition supplies what only the
// wrappers see, and the fabric loop's residual.
func perLayer(s spec, seed uint64, g *gate) ([]metric, []string) {
	g.run(s, repConfig{seed: seed})
	base := g.run(s, repConfig{seed: seed})
	tr := g.run(s, repConfig{seed: seed, probe: true})
	var noObs, oneWorker *rep
	if s.traced {
		noObs = g.run(s, repConfig{seed: seed, probe: true, noObs: true})
	}
	if s.engine == decomposed {
		oneWorker = g.run(s, repConfig{seed: seed, workers: 1})
	}
	if base == nil || tr == nil || (s.traced && noObs == nil) || (s.engine == decomposed && oneWorker == nil) {
		return nil, nil
	}
	return layerMetrics(s, base, tr, noObs, oneWorker)
}

// layerSet accumulates per-layer metrics in report order.
type layerSet []metric

func (l *layerSet) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	*l = append(*l, metric{Name: name, Unit: unit, Value: v})
}

// per divides, reading 0 for an empty denominator.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func layerMetrics(s spec, base, tr, noObs, oneWorker *rep) ([]metric, []string) {
	var l layerSet
	var notes []string
	dec := float64(base.decisions)
	res := base.res

	var genCalls, genBusy float64
	if tr.gen != nil {
		genCalls, genBusy = float64(tr.gen.calls), tr.gen.busy.Seconds()
	}
	l.add("workload.next_calls", "count", genCalls)
	l.add("workload.busy_s", "s", genBusy)
	l.add("workload.ns_per_arrival", "ns", per(genBusy*1e9, genCalls))

	schedS := float64(res.SchedNanos) / 1e9
	repairs := float64(res.Obs.Counter("sched.index_repairs"))
	rebuilds := float64(res.Obs.Counter("sched.index_rebuilds"))
	l.add("sched.busy_s", "s", schedS)
	l.add("sched.ns_per_decision", "ns", per(schedS*1e9, dec))
	l.add("sched.decision_ns_p50", "ns", histQuantile(res.Obs, "fabric.decision_ns", 0.50))
	l.add("sched.decision_ns_p99", "ns", histQuantile(res.Obs, "fabric.decision_ns", 0.99))
	l.add("sched.index_repairs", "count", repairs)
	l.add("sched.index_rebuilds", "count", rebuilds)
	l.add("sched.repair_share", "ratio", per(repairs, repairs+rebuilds))

	// The fabric loop's self time: what the run spent outside the layers
	// timed separately. The centralized residual comes from the traced
	// repetition, whose wrappers time the generator and trace sink; the
	// decomposed one is cell busy time minus scheduler time, both summed
	// over the cells (CPU time across workers, not wall time).
	var loopS float64
	if s.engine == centralized {
		var sinkS float64
		if tr.sink != nil {
			sinkS = tr.sink.busy.Seconds()
		}
		loopS = tr.runS - float64(tr.res.SchedNanos)/1e9 - genBusy - sinkS
	} else {
		loopS = cellBusyS(res.Imbalance) - schedS
	}
	l.add("fabric.loop_self_s", "s", loopS)
	l.add("fabric.loop_ns_per_decision", "ns", per(loopS*1e9, dec))
	l.add("flow.pool_reuses", "count", float64(res.Obs.Counter("flow.pool_reuses")))
	l.add("eventq.high_water", "count", gaugeMax(res.Obs, "eventq.high_water"))

	var events, sinkS, obsS float64
	if tr.sink != nil {
		events, sinkS = float64(tr.traceEvents), tr.sink.busy.Seconds()
		obsS = tr.runS - noObs.runS
	}
	l.add("trace.events", "count", events)
	l.add("trace.bytes", "B", float64(tr.traceBytes))
	l.add("trace.sink_s", "s", sinkS)
	l.add("trace.ns_per_event", "ns", per(sinkS*1e9, events))
	l.add("obs.enabled_overhead_s", "s", obsS)
	overhead := tr.runS/base.runS - 1
	l.add("trace_overhead_frac", "ratio", overhead)

	l.add("alloc.bytes_per_decision", "B", per(float64(base.memRun.bytes), dec))
	l.add("alloc.objects_per_decision", "count", per(float64(base.memRun.objects), dec))
	l.add("alloc.gc_cycles", "count", float64(base.memRun.gcs))
	l.add("alloc.setup_mb", "MB", float64(base.memSetup.bytes)/1e6)

	l.add("setup.sched_s", "s", base.setupSchedS)
	l.add("setup.workload_s", "s", base.setupWorkloadS)
	l.add("setup.sim_s", "s", base.setupSimS)

	var im fabricsim.ShardImbalance
	if res.Imbalance != nil {
		im = *res.Imbalance
	}
	var routeS, foldS, msgs, speedup float64
	for _, sp := range tr.timeline.Spans() {
		if sp.Track != obs.TimelineCoordinator {
			continue
		}
		switch sp.Name {
		case "route":
			routeS += float64(sp.DurNs) / 1e9
		case "fold":
			foldS += float64(sp.DurNs) / 1e9
		}
	}
	for _, cell := range res.ShardObs {
		msgs += float64(cell.Counter("cell.msgs_sent"))
	}
	if oneWorker != nil {
		speedup = (oneWorker.setupS + oneWorker.runS) / (base.setupS + base.runS)
	}
	l.add("shard.cells", "count", float64(im.Cells))
	l.add("shard.barriers", "count", float64(im.Barriers))
	l.add("shard.windows_per_barrier", "count", im.WindowsPerBarrier)
	l.add("shard.cell_busy_s", "s", cellBusyS(res.Imbalance))
	l.add("shard.worker_wait_frac", "ratio", im.BarrierWaitFraction)
	l.add("shard.busy_skew", "ratio", im.SkewRatio)
	l.add("shard.route_s", "s", routeS)
	l.add("shard.fold_s", "s", foldS)
	l.add("shard.msgs_sent", "count", msgs)
	l.add("shard.parallel_speedup", "ratio", speedup)

	notes = append(notes, fmt.Sprintf("traced repetition ran %+.1f%% against the untraced one (%.3f s vs %.3f s)",
		100*overhead, tr.runS, base.runS))
	if s.engine == decomposed {
		notes = append(notes, "shard.route_s and shard.fold_s are measured in the Timeline-traced repetition: read them as shares of that slowed run, not as absolute costs")
	}
	return l, notes
}

// cellBusyS sums the decomposed cells' in-window busy time.
func cellBusyS(im *fabricsim.ShardImbalance) float64 {
	if im == nil {
		return 0
	}
	var ns int64
	for _, b := range im.BusyNs {
		ns += b
	}
	return float64(ns) / 1e9
}

func gaugeMax(snap obs.Snapshot, name string) float64 {
	for _, g := range snap.Gauges {
		if g.Name == name {
			return g.Max
		}
	}
	return 0
}

// histQuantile estimates the q-quantile of a log2-bucketed histogram by
// interpolating linearly inside the bucket that holds it: bucket i spans
// (2^(i-1), 2^i], bucket 0 spans [0, 1].
func histQuantile(snap obs.Snapshot, name string, q float64) float64 {
	for _, h := range snap.Histograms {
		if h.Name != name || h.Count == 0 {
			continue
		}
		rank := q * float64(h.Count)
		var seen float64
		for _, b := range h.Buckets {
			c := float64(b.Count)
			if seen+c >= rank {
				lo := b.Le / 2
				if b.Le <= 1 {
					lo = 0
				}
				return lo + (b.Le-lo)*(rank-seen)/c
			}
			seen += c
		}
		return h.Buckets[len(h.Buckets)-1].Le
	}
	return 0
}
