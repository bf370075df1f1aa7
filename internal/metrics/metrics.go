// Package metrics implements the paper's three evaluation metrics
// (Section V-A): flow completion time with per-class mean and 99th
// percentile, global throughput in bytes leaving the fabric, and
// queue-length time series with a macro-scale stability verdict.
package metrics

import (
	"fmt"
	"sort"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// FCT accumulates flow completion times (seconds) per flow class. The
// default collector keeps every sample (exact percentiles, memory grows
// with the horizon); NewBoundedFCT keeps running aggregates plus a bounded
// sample tail for streaming long-horizon runs.
type FCT struct {
	samples map[flow.Class][]float64
	agg     map[flow.Class]*classAgg
	cap     int // 0: unbounded; >0: retain at most this many samples per class
}

// classAgg is the running per-class aggregate, maintained on every Add so
// mean/max/total survive sample trimming (and checkpointing) exactly.
type classAgg struct {
	count int64
	sum   float64
	max   float64
}

// NewFCT returns an empty, unbounded collector.
func NewFCT() *FCT {
	return &FCT{
		samples: make(map[flow.Class][]float64),
		agg:     make(map[flow.Class]*classAgg),
	}
}

// NewBoundedFCT returns a collector that retains at most keep samples per
// class (keep <= 0 selects the unbounded collector). Mean, max, and total
// stay exact via running aggregates; P99 degrades to a tail estimate over
// the retained window — the trade streaming mode makes for bounded memory.
func NewBoundedFCT(keep int) *FCT {
	f := NewFCT()
	if keep > 0 {
		f.cap = keep
	}
	return f
}

// Add records one completed flow.
func (f *FCT) Add(class flow.Class, fct float64) {
	a := f.agg[class]
	if a == nil {
		a = &classAgg{}
		f.agg[class] = a
	}
	a.count++
	a.sum += fct
	if fct > a.max {
		a.max = fct
	}
	s := append(f.samples[class], fct)
	if f.cap > 0 && len(s) >= 2*f.cap {
		// Amortized O(1): trim back to cap only after doubling.
		copy(s, s[len(s)-f.cap:])
		s = s[:f.cap]
	}
	f.samples[class] = s
}

// Count returns the number of completions recorded for class (including
// any trimmed away in bounded mode).
func (f *FCT) Count(class flow.Class) int {
	if a := f.agg[class]; a != nil {
		return int(a.count)
	}
	return 0
}

// ClassStats summarizes one flow class, in the units the paper's Table I
// reports (milliseconds).
type ClassStats struct {
	Class   flow.Class
	Count   int
	MeanMs  float64
	P99Ms   float64
	MaxMs   float64
	TotalMs float64
}

// Stats computes the class summary. Zero-valued stats are returned for a
// class with no samples. In bounded mode, mean/max/total come from the
// exact running aggregates while P99 is estimated over the retained tail.
func (f *FCT) Stats(class flow.Class) ClassStats {
	samples := f.samples[class]
	if f.cap > 0 {
		cs := ClassStats{Class: class, Count: f.Count(class)}
		a := f.agg[class]
		if a == nil || a.count == 0 {
			return cs
		}
		sorted := make([]float64, len(samples))
		copy(sorted, samples)
		sort.Float64s(sorted)
		const toMs = 1e3
		cs.MeanMs = a.sum / float64(a.count) * toMs
		if len(sorted) > 0 {
			cs.P99Ms = stats.PercentilesSorted(sorted, 99)[0] * toMs
		}
		cs.MaxMs = a.max * toMs
		cs.TotalMs = a.sum * toMs
		return cs
	}
	cs := ClassStats{Class: class, Count: len(samples)}
	if len(samples) == 0 {
		return cs
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	const toMs = 1e3
	cs.MeanMs = sum / float64(len(sorted)) * toMs
	cs.P99Ms = stats.PercentilesSorted(sorted, 99)[0] * toMs
	cs.MaxMs = sorted[len(sorted)-1] * toMs
	cs.TotalMs = sum * toMs
	return cs
}

// Merge folds another collector's completions into f, class by class in
// the fixed Query/Background/Other order and sample by sample in other's
// recorded order. The sharded simulator merges per-rack collectors in rack
// order on one goroutine, so the merged aggregate (including the
// floating-point Sum and the sample ordering the checkpoint digest hashes)
// is a pure function of the per-rack streams, never of shard grouping.
// Merge panics on bounded collectors: trimmed tails cannot merge exactly,
// and the sharded path only runs unbounded.
func (f *FCT) Merge(other *FCT) {
	if f.cap > 0 || other.cap > 0 {
		panic("metrics: Merge requires unbounded FCT collectors")
	}
	for _, c := range []flow.Class{flow.ClassQuery, flow.ClassBackground, flow.ClassOther} {
		oa := other.agg[c]
		if oa == nil || oa.count == 0 {
			continue
		}
		a := f.agg[c]
		if a == nil {
			a = &classAgg{}
			f.agg[c] = a
		}
		a.count += oa.count
		a.sum += oa.sum
		if oa.max > a.max {
			a.max = oa.max
		}
		f.samples[c] = append(f.samples[c], other.samples[c]...)
	}
}

// Classes returns the classes with at least one sample, in a fixed order.
func (f *FCT) Classes() []flow.Class {
	var out []flow.Class
	for _, c := range []flow.Class{flow.ClassQuery, flow.ClassBackground, flow.ClassOther} {
		if len(f.samples[c]) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Series is a time-indexed sample sequence (queue lengths, throughput,
// Lyapunov values).
type Series struct {
	Times  []float64
	Values []float64
}

// Add appends one sample. Times must be non-decreasing; violations panic
// because they indicate a simulator bug.
func (s *Series) Add(t, v float64) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic(fmt.Sprintf("metrics: time went backwards: %g after %g", t, s.Times[n-1]))
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// Mean returns the average value.
func (s *Series) Mean() float64 { return stats.Mean(s.Values) }

// Max returns the largest value, or 0 when empty.
func (s *Series) Max() float64 {
	var m float64
	for i, v := range s.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Trend classifies the series as stable or growing (DESIGN.md §5); the
// threshold is the minimum growth ratio counted as macro-scale growth.
func (s *Series) Trend(threshold float64) stats.TrendReport {
	return stats.ClassifyTrend(s.Values, threshold)
}

// TailMean returns the mean of the final frac portion of the series — the
// "stable point" the paper reads off Figures 5(b) and 7. frac is clamped
// to (0, 1].
func (s *Series) TailMean(frac float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	if frac <= 0 || frac > 1 {
		frac = 0.5
	}
	start := int(float64(len(s.Values)) * (1 - frac))
	if start >= len(s.Values) {
		start = len(s.Values) - 1
	}
	return stats.Mean(s.Values[start:])
}

// FaultCounters tallies injected fault events over a run (zero-valued for
// fault-free runs). The fabric simulator fills the window counters at
// fault boundaries, the outage-fallback scheduler reports held decisions,
// and the slotted switch and distributed arbitration report losses.
type FaultCounters struct {
	// LinkFaultStarts / LinkFaultEnds count link-fault window boundaries
	// the run actually reached.
	LinkFaultStarts int64
	LinkFaultEnds   int64
	// OutageStarts / OutageEnds count scheduler-outage window boundaries.
	OutageStarts int64
	OutageEnds   int64
	// DecisionsHeld counts scheduling decisions served from the held
	// matching while the scheduler was unreachable.
	DecisionsHeld int64
	// PacketsLost counts scheduled packets dropped in flight (Eq. 1 L(t)).
	PacketsLost int64
	// GrantsLost counts lost request/grant control messages.
	GrantsLost int64
}

// Any reports whether the run saw at least one fault event.
func (c FaultCounters) Any() bool {
	return c != FaultCounters{}
}

// Throughput accounts bytes leaving the fabric, bucketed over time so the
// Figure 5(a) series can be reproduced.
type Throughput struct {
	bucketSeconds float64
	buckets       []float64
	total         float64
}

// NewThroughput creates a meter with the given time-bucket width (seconds).
// It panics on a non-positive width.
func NewThroughput(bucketSeconds float64) *Throughput {
	if bucketSeconds <= 0 {
		panic(fmt.Sprintf("metrics: bucket width %g <= 0", bucketSeconds))
	}
	return &Throughput{bucketSeconds: bucketSeconds}
}

// AddBytes records bytes departing at time t (seconds, t >= 0).
func (m *Throughput) AddBytes(t, bytes float64) {
	if bytes <= 0 || t < 0 {
		return
	}
	idx := int(t / m.bucketSeconds)
	for len(m.buckets) <= idx {
		m.buckets = append(m.buckets, 0)
	}
	m.buckets[idx] += bytes
	m.total += bytes
}

// AddRange records bytes that departed uniformly over the interval
// [t0, t1], distributing them across the buckets the interval spans. The
// fabric simulator drains flows in bulk between events, so attributing the
// whole drain to the interval end would skew bucket boundaries by up to one
// event gap.
func (m *Throughput) AddRange(t0, t1, bytes float64) {
	if bytes <= 0 || t1 < t0 || t1 < 0 {
		return
	}
	if t0 < 0 {
		t0 = 0
	}
	if t1 == t0 {
		m.AddBytes(t1, bytes)
		return
	}
	rate := bytes / (t1 - t0)
	for t0 < t1 {
		idx := int(t0 / m.bucketSeconds)
		edge := float64(idx+1) * m.bucketSeconds
		if edge <= t0 {
			// t0 sits exactly on (or a rounding hair past) a bucket edge;
			// without this bump the loop would never advance.
			idx++
			edge = float64(idx+1) * m.bucketSeconds
		}
		if edge > t1 {
			edge = t1
		}
		for len(m.buckets) <= idx {
			m.buckets = append(m.buckets, 0)
		}
		part := rate * (edge - t0)
		m.buckets[idx] += part
		m.total += part
		t0 = edge
	}
}

// Merge folds another meter's buckets into m bucket-by-bucket. Both
// meters must share a bucket width (the sharded simulator configures every
// rack cell identically); a mismatch panics as a simulator bug. Like
// FCT.Merge, calling it in fixed rack order keeps the merged totals a pure
// function of the per-rack meters.
func (m *Throughput) Merge(other *Throughput) {
	if m.bucketSeconds != other.bucketSeconds {
		panic(fmt.Sprintf("metrics: Merge bucket width mismatch: %g vs %g",
			m.bucketSeconds, other.bucketSeconds))
	}
	for len(m.buckets) < len(other.buckets) {
		m.buckets = append(m.buckets, 0)
	}
	for i, b := range other.buckets {
		m.buckets[i] += b
	}
	m.total += other.total
}

// AverageGbps returns the mean rate over the given horizon (seconds).
func (m *Throughput) AverageGbps(duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	return m.total * 8 / duration / 1e9
}

// SeriesGbps returns the bucketed rate series with bucket midpoints as
// timestamps.
func (m *Throughput) SeriesGbps() Series {
	var s Series
	for i, bytes := range m.buckets {
		mid := (float64(i) + 0.5) * m.bucketSeconds
		s.Add(mid, bytes*8/m.bucketSeconds/1e9)
	}
	return s
}
