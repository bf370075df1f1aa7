package obs

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestNilHandleIsDisabledNoop(t *testing.T) {
	var o *Obs
	o.Emit(1, "k", 0, 1, "")
	if o.EventCount() != 0 || o.LastEvents(10) != nil || o.SinkErr() != nil {
		t.Fatal("nil handle recorded something")
	}
	// Instruments resolved through the nil handle must be usable no-ops.
	c := o.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := o.Gauge("g")
	g.Set(3)
	if g.Value() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge recorded")
	}
	h := o.Histogram("h")
	h.Observe(10)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Buckets() != nil {
		t.Fatal("nil histogram recorded")
	}
	if s := o.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil snapshot non-empty")
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(2)
	c.Inc()
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if r.Counter("a") != c {
		t.Fatal("counter not interned by name")
	}
	g := r.Gauge("g")
	g.Set(5)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 5 {
		t.Fatalf("gauge value/max = %g/%g, want 2/5", g.Value(), g.Max())
	}
	// Gauges that only ever see negative values must still report their
	// high-water mark, not zero.
	neg := r.Gauge("neg")
	neg.Set(-7)
	neg.Set(-3)
	if neg.Max() != -3 {
		t.Fatalf("negative gauge max = %g, want -3", neg.Max())
	}
	h := r.Histogram("h")
	for _, v := range []float64{0.5, 1, 2, 3, 1024} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1030.5 {
		t.Fatalf("hist count/sum = %d/%g", h.Count(), h.Sum())
	}
}

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {0.5, 0}, {1, 0},
		{1.5, 1}, {2, 1},
		{2.0001, 2}, {4, 2},
		{1024, 10}, {1025, 11},
		{math.NaN(), 0},
		{math.MaxFloat64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := histBucketOf(c.v); got != c.want {
			t.Errorf("bucket(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	h := &Histogram{}
	h.Observe(3) // bucket 2, Le 4
	bs := h.Buckets()
	if len(bs) != 1 || bs[0].Le != 4 || bs[0].Count != 1 {
		t.Fatalf("buckets = %+v", bs)
	}
	if q := h.Quantile(0.99); q != 4 {
		t.Fatalf("quantile = %g, want 4", q)
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	mk := func() Snapshot {
		r := NewRegistry()
		r.Counter("zeta").Add(1)
		r.Counter("alpha").Add(2)
		r.Gauge("mid").Set(7)
		r.Histogram("lat").Observe(100)
		return r.Snapshot()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("snapshots of identical registries differ")
	}
	if a.Counters[0].Name != "alpha" || a.Counters[1].Name != "zeta" {
		t.Fatalf("counters not sorted: %+v", a.Counters)
	}
	if a.Counter("zeta") != 1 || a.Counter("missing") != 0 {
		t.Fatal("snapshot counter lookup wrong")
	}
}

func TestRingRetainsLastEventsInOrder(t *testing.T) {
	o := New(Options{})
	const emitted = RingCapacity + 6
	for i := 1; i <= emitted; i++ {
		o.Emit(float64(i), "e", i, float64(i), "")
	}
	if o.EventCount() != emitted {
		t.Fatalf("event count = %d", o.EventCount())
	}
	got := o.LastEvents(0)
	if len(got) != RingCapacity {
		t.Fatalf("retained %d events, want %d", len(got), RingCapacity)
	}
	for i, ev := range got {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if two := o.LastEvents(2); len(two) != 2 || two[1].Seq != emitted {
		t.Fatalf("LastEvents(2) = %+v", two)
	}
	// Before the ring wraps, only what was emitted comes back.
	o2 := New(Options{})
	o2.Emit(1, "a", -1, 0, "")
	if evs := o2.LastEvents(5); len(evs) != 1 || evs[0].Kind != "a" {
		t.Fatalf("partial ring = %+v", evs)
	}
}

// TestRestoreTrimsOversizedTail: a checkpoint is outside input, so a
// tracer tail longer than the ring restores as its most recent
// RingCapacity events, and recording continues after them.
func TestRestoreTrimsOversizedTail(t *testing.T) {
	var st TracerState
	for i := 1; i <= RingCapacity+10; i++ {
		st.Events = append(st.Events, Event{Seq: uint64(i), Kind: "e"})
	}
	st.Seq = RingCapacity + 10
	o := New(Options{})
	if err := o.RestoreState(&st); err != nil {
		t.Fatal(err)
	}
	got := o.LastEvents(0)
	if len(got) != RingCapacity || got[0].Seq != 11 || got[RingCapacity-1].Seq != st.Seq {
		t.Fatalf("restored %d events, seqs %d..%d", len(got), got[0].Seq, got[len(got)-1].Seq)
	}
	o.Emit(1, "next", -1, 0, "")
	if got := o.LastEvents(0); len(got) != RingCapacity || got[0].Seq != 12 || got[RingCapacity-1].Seq != st.Seq+1 {
		t.Fatalf("after one more event: %d events, seqs %d..%d", len(got), got[0].Seq, got[len(got)-1].Seq)
	}
}

type collectSink struct {
	events []Event
	failAt int // fail on the n-th write (1-based), 0 = never
}

func (s *collectSink) WriteEvent(ev Event) error {
	if s.failAt > 0 && len(s.events)+1 >= s.failAt {
		return errors.New("sink full")
	}
	s.events = append(s.events, ev)
	return nil
}

func TestSinkReceivesEventsAndErrorIsSticky(t *testing.T) {
	sink := &collectSink{}
	o := New(Options{Sink: sink})
	o.Emit(0.5, "x", 1, 2, "d")
	o.Emit(0.6, "y", -1, 3, "")
	if len(sink.events) != 2 || sink.events[0].Kind != "x" || sink.events[1].Seq != 2 {
		t.Fatalf("sink saw %+v", sink.events)
	}
	if o.SinkErr() != nil {
		t.Fatal("unexpected sink error")
	}

	failing := &collectSink{failAt: 2}
	o2 := New(Options{Sink: failing})
	o2.Emit(1, "a", -1, 0, "")
	o2.Emit(2, "b", -1, 0, "")
	o2.Emit(3, "c", -1, 0, "")
	if o2.SinkErr() == nil {
		t.Fatal("sink error not surfaced")
	}
	if len(failing.events) != 1 {
		t.Fatalf("failed sink kept receiving: %d events", len(failing.events))
	}
	// The ring must keep recording past the sink failure.
	if evs := o2.LastEvents(0); len(evs) != 3 || evs[2].Kind != "c" {
		t.Fatalf("ring lost events after sink failure: %+v", evs)
	}
}

func TestWallClockOptIn(t *testing.T) {
	o := New(Options{})
	o.Emit(1, "a", -1, 0, "")
	if o.LastEvents(1)[0].WallNs != 0 {
		t.Fatal("wall stamp present without opt-in")
	}
	ow := New(Options{WallClock: true})
	ow.Emit(1, "a", -1, 0, "")
	if ow.LastEvents(1)[0].WallNs == 0 {
		t.Fatal("wall stamp missing with opt-in")
	}
}

func TestEmitDeterministicSequence(t *testing.T) {
	mk := func() []Event {
		o := New(Options{})
		for i := 0; i < 20; i++ {
			o.Emit(float64(i)*0.25, fmt.Sprintf("k%d", i%3), i%4, float64(i*i), "")
		}
		return o.LastEvents(0)
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Fatal("identical emission histories produced different events")
	}
}
