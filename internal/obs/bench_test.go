package obs

import "testing"

// The disabled path is a nil handle: these benchmarks bound the cost the
// instrumentation adds to uninstrumented runs. fabricsim's
// TestDisabledObsOverhead prices the same probe against a run's
// per-decision scheduling cost.

func BenchmarkObsDisabledEmit(b *testing.B) {
	var o *Obs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(1.5, "bench", 3, 42, "")
	}
}

func BenchmarkObsDisabledCounterAdd(b *testing.B) {
	var o *Obs
	c := o.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsDisabledHistogramObserve(b *testing.B) {
	var o *Obs
	h := o.Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

func BenchmarkObsEnabledEmitRingOnly(b *testing.B) {
	o := New(Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(1.5, "bench", 3, 42, "")
	}
}

func BenchmarkObsEnabledCounterAdd(b *testing.B) {
	o := New(Options{})
	c := o.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsEnabledHistogramObserve(b *testing.B) {
	o := New(Options{})
	h := o.Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}
