// Package obs is the deterministic observability substrate the simulators
// are instrumented with: a registry of named counters, gauges, and
// log-bucketed histograms, plus a simulation-time event tracer backed by a
// fixed-capacity flight-recorder ring buffer and an optional streaming
// sink (the JSONL trace export in internal/trace).
//
// Two properties shape every API here:
//
//   - Determinism. Events are stamped with simulation time and a
//     monotone sequence number — never wall time unless Options.WallClock
//     is explicitly set — so two runs of the same seeded configuration
//     emit byte-identical traces. Wall-clock measurements (decision
//     latency spans) go only into registry histograms, which are reported
//     alongside results but never enter the trace stream.
//
//   - Near-zero disabled cost. A nil *Obs is the disabled
//     implementation: every method is nil-safe, Emit is a single pointer
//     comparison, and registry instruments resolved through a nil handle
//     are themselves nil no-ops. Hot paths therefore instrument
//     unconditionally; the overhead budget is verified by
//     BenchmarkObsDisabled* and by fabricsim's TestDisabledObsOverhead.
//
// Like the simulators it instruments, an Obs is single-goroutine state:
// build one per run. Parallel experiments (internal/runner) construct a
// private Obs inside each worker task, exactly as they do schedulers.
package obs

import "time"

// Event is one flight-recorder entry. Port is -1 when the event is not
// port-scoped. WallNs is zero unless the handle was built with
// Options.WallClock (wall stamps are machine-dependent and therefore
// excluded from deterministic traces by default).
type Event struct {
	Seq    uint64  `json:"seq"`
	T      float64 `json:"t"` // simulation time, seconds (slots for the slotted switch)
	Kind   string  `json:"kind"`
	Port   int     `json:"port"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
	WallNs int64   `json:"wallNs,omitempty"`
}

// EventSink receives every emitted event in order, e.g. a JSONL trace
// writer. A sink error is sticky: the Obs stops forwarding and reports the
// first error from SinkErr, while the ring keeps recording.
type EventSink interface {
	WriteEvent(Event) error
}

// RingCapacity is the flight recorder's depth: enough context to
// explain a truncation without holding a whole run in memory.
const RingCapacity = 256

// Options parameterizes New.
type Options struct {
	// WallClock additionally stamps events with wall-clock nanoseconds.
	// Machine-dependent: leave off for deterministic traces.
	WallClock bool
	// Sink, when non-nil, receives every event as it is emitted.
	Sink EventSink
}

// Obs is one run's instrumentation handle: a registry plus the event
// tracer. The nil handle is the disabled implementation.
type Obs struct {
	reg     *Registry
	ring    [RingCapacity]Event
	next    int // ring write position
	filled  int // events currently in the ring
	seq     uint64
	wall    bool
	sink    EventSink
	sinkErr error
}

// New builds an enabled handle.
func New(opts Options) *Obs {
	return &Obs{reg: NewRegistry(), wall: opts.WallClock, sink: opts.Sink}
}

// Registry returns the instrument registry (nil for a disabled handle —
// which is itself a valid, no-op registry receiver).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Counter is shorthand for Registry().Counter.
func (o *Obs) Counter(name string) *Counter { return o.Registry().Counter(name) }

// Gauge is shorthand for Registry().Gauge.
func (o *Obs) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

// Histogram is shorthand for Registry().Histogram.
func (o *Obs) Histogram(name string) *Histogram { return o.Registry().Histogram(name) }

// Snapshot copies the registry state (empty for a disabled handle).
func (o *Obs) Snapshot() Snapshot { return o.Registry().Snapshot() }

// Emit records one event at simulation time t. On a nil handle it is a
// single pointer comparison — the disabled hot path.
func (o *Obs) Emit(t float64, kind string, port int, value float64, detail string) {
	if o == nil {
		return
	}
	o.seq++
	ev := Event{Seq: o.seq, T: t, Kind: kind, Port: port, Value: value, Detail: detail}
	if o.wall {
		ev.WallNs = time.Now().UnixNano()
	}
	if o.sink != nil && o.sinkErr == nil {
		if err := o.sink.WriteEvent(ev); err != nil {
			o.sinkErr = err
		}
	}
	o.ring[o.next] = ev
	o.next = (o.next + 1) % RingCapacity
	if o.filled < RingCapacity {
		o.filled++
	}
}

// EventCount returns how many events have been emitted in total (not just
// those still in the ring).
func (o *Obs) EventCount() uint64 {
	if o == nil {
		return 0
	}
	return o.seq
}

// SinkErr returns the first sink write error, if any. Callers exporting a
// trace should check it after the run: the ring keeps recording past a
// sink failure, but the exported trace is incomplete.
func (o *Obs) SinkErr() error {
	if o == nil {
		return nil
	}
	return o.sinkErr
}

// LastEvents returns up to k of the most recent events in chronological
// order (all retained events when k <= 0 or exceeds the ring content).
// The returned slice is a copy.
func (o *Obs) LastEvents(k int) []Event {
	if o == nil || o.filled == 0 {
		return nil
	}
	if k <= 0 || k > o.filled {
		k = o.filled
	}
	out := make([]Event, k)
	// Oldest retained event sits at next-filled (mod len) when the ring has
	// wrapped; the last k start k before next.
	start := o.next - k + RingCapacity
	for i := 0; i < k; i++ {
		out[i] = o.ring[(start+i)%RingCapacity]
	}
	return out
}
