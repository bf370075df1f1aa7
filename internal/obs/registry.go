package obs

import (
	"math"
	"sort"
)

// Counter is a monotonically accumulating int64 metric. The zero value is
// ready to use. Every method is nil-safe: a nil *Counter ignores writes
// and reads as zero, so instrumented code resolves its counters once at
// construction and calls them unconditionally — the disabled path is a
// single pointer comparison.
type Counter struct{ v int64 }

// Add accumulates n (negative n is allowed for corrections but counters
// are conventionally monotone).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated total (zero for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value metric that also tracks its high-water mark.
// Nil-safe like Counter.
type Gauge struct {
	v, max float64
	set    bool
}

// Set records the current value and updates the high-water mark.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// Value returns the last value set (zero for a nil or never-set gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark since construction.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return g.max
}

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds observations <= 1, bucket i holds (2^(i-1), 2^i], and the last
// bucket absorbs everything larger. 64 buckets cover any float64 span a
// simulation produces (nanosecond latencies through multi-terabyte
// backlogs).
const histBuckets = 64

// Histogram is a log2-bucketed distribution: fixed memory, no allocation
// per observation, and deterministic bucketing (the bucket of a value is a
// pure function of its bits). Nil-safe like Counter.
type Histogram struct {
	counts [histBuckets]int64
	count  int64
	sum    float64
}

// histBucketOf maps v to its bucket index.
func histBucketOf(v float64) int {
	if !(v > 1) { // catches v <= 1 and NaN
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp with frac in [0.5, 1)
	b := exp
	if frac == 0.5 {
		b-- // exact power of two: v == 2^(exp-1) belongs to bucket exp-1
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[histBucketOf(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns Sum/Count, or zero for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Bucket is one non-empty histogram bucket: Count observations were <= Le
// (and greater than the previous bucket's Le).
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Buckets returns the non-empty buckets in ascending upper-edge order.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, Bucket{Le: math.Ldexp(1, i), Count: c})
		}
	}
	return out
}

// Quantile returns the upper edge of the bucket containing the q-th
// quantile (q in [0, 1]) — a factor-of-two estimate, which is what a
// log-bucketed histogram can honestly promise.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return math.Ldexp(1, i)
		}
	}
	return math.Ldexp(1, histBuckets-1)
}

// Registry is a named collection of counters, gauges, and histograms.
// Instruments are created on first reference and live for the registry's
// lifetime, so hot paths resolve each instrument once and then pay only
// the instrument's own (pointer-sized) cost. Not safe for concurrent use —
// like the simulators it instruments, a registry belongs to one run.
//
// Nil-safe: every method on a nil *Registry returns a nil instrument,
// whose methods are in turn no-ops, so "no registry" needs no branches at
// the call sites.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's value and high-water mark. Set records
// whether the gauge was ever set, which Max semantics depend on: the
// first Set after a restore must not clobber a restored high-water mark,
// and an untouched gauge must restore as untouched.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
	Set   bool    `json:"set"`
}

// HistogramSnapshot is one histogram's summary and non-empty buckets.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// sorted by name so rendering and serialization are deterministic. It is
// also the registry's checkpoint form (see RestoreState).
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter value from the snapshot (zero when
// absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Snapshot copies the registry's state in sorted-name order. A nil
// registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for _, name := range sortedKeys(r.counters) {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		g := r.gauges[name]
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.v, Max: g.max, Set: g.set})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name: name, Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets(),
		})
	}
	return s
}

// Filter returns a copy of the snapshot holding only the instruments
// whose names keep accepts — e.g. the deterministic-plane view, which
// drops every IsWallClock name. Slices are freshly allocated; the
// receiver is not modified.
func (s Snapshot) Filter(keep func(name string) bool) Snapshot {
	var out Snapshot
	for _, c := range s.Counters {
		if keep(c.Name) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if keep(g.Name) {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if keep(h.Name) {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
