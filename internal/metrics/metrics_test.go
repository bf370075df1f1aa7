package metrics

import (
	"math"
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// Last returns the series' most recent value, or 0 when empty.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// TotalBytes returns the throughput meter's total departed volume.
func (m *Throughput) TotalBytes() float64 { return m.total }

func TestFCTStats(t *testing.T) {
	f := NewFCT()
	// 100 samples: 1ms..100ms.
	for i := 1; i <= 100; i++ {
		f.Add(flow.ClassQuery, float64(i)/1000)
	}
	cs := f.Stats(flow.ClassQuery)
	if cs.Count != 100 {
		t.Fatalf("Count = %d, want 100", cs.Count)
	}
	if math.Abs(cs.MeanMs-50.5) > 1e-9 {
		t.Fatalf("MeanMs = %g, want 50.5", cs.MeanMs)
	}
	if cs.P99Ms < 99 || cs.P99Ms > 100 {
		t.Fatalf("P99Ms = %g, want in [99, 100]", cs.P99Ms)
	}
	if cs.MaxMs != 100 {
		t.Fatalf("MaxMs = %g, want 100", cs.MaxMs)
	}
}

func TestFCTEmptyClass(t *testing.T) {
	f := NewFCT()
	cs := f.Stats(flow.ClassBackground)
	if cs.Count != 0 || cs.MeanMs != 0 || cs.P99Ms != 0 {
		t.Fatalf("empty class stats = %+v", cs)
	}
}

func TestFCTClasses(t *testing.T) {
	f := NewFCT()
	if got := f.Classes(); len(got) != 0 {
		t.Fatalf("Classes on empty = %v", got)
	}
	f.Add(flow.ClassBackground, 0.1)
	f.Add(flow.ClassQuery, 0.2)
	got := f.Classes()
	if len(got) != 2 || got[0] != flow.ClassQuery || got[1] != flow.ClassBackground {
		t.Fatalf("Classes = %v, want [query background]", got)
	}
	if f.Count(flow.ClassQuery) != 1 {
		t.Fatalf("Count = %d", f.Count(flow.ClassQuery))
	}
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Last() != 0 || s.Max() != 0 || s.Len() != 0 {
		t.Fatal("empty series should report zeros")
	}
	s.Add(0, 10)
	s.Add(1, 30)
	s.Add(2, 20)
	if s.Len() != 3 || s.Last() != 20 || s.Max() != 30 {
		t.Fatalf("series = %+v", s)
	}
	if got := s.Mean(); got != 20 {
		t.Fatalf("Mean = %g, want 20", got)
	}
}

func TestSeriesPanicsOnTimeRegression(t *testing.T) {
	var s Series
	s.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	s.Add(4, 1)
}

func TestSeriesTailMean(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i)) // 0..9
	}
	// Last 50%: values 5..9, mean 7.
	if got := s.TailMean(0.5); got != 7 {
		t.Fatalf("TailMean(0.5) = %g, want 7", got)
	}
	// Out-of-range frac falls back to 0.5.
	if got := s.TailMean(2); got != 7 {
		t.Fatalf("TailMean(2) = %g, want 7", got)
	}
	var empty Series
	if got := empty.TailMean(0.5); got != 0 {
		t.Fatalf("empty TailMean = %g", got)
	}
}

func TestSeriesTrendIntegration(t *testing.T) {
	var growing, stable Series
	for i := 0; i < 200; i++ {
		growing.Add(float64(i), float64(i)*50)
		stable.Add(float64(i), 1000)
	}
	if got := growing.Trend(0.5).Verdict; got != stats.TrendGrowing {
		t.Fatalf("growing verdict = %v", got)
	}
	if got := stable.Trend(0.5).Verdict; got != stats.TrendStable {
		t.Fatalf("stable verdict = %v", got)
	}
}

func TestThroughputBuckets(t *testing.T) {
	m := NewThroughput(1)
	m.AddBytes(0.5, 125e6) // 1 Gb in bucket 0
	m.AddBytes(1.5, 250e6) // 2 Gb in bucket 1
	m.AddBytes(1.9, 125e6) // +1 Gb in bucket 1
	if got := m.TotalBytes(); got != 500e6 {
		t.Fatalf("TotalBytes = %g", got)
	}
	s := m.SeriesGbps()
	if s.Len() != 2 {
		t.Fatalf("series len = %d, want 2", s.Len())
	}
	if math.Abs(s.Values[0]-1) > 1e-9 || math.Abs(s.Values[1]-3) > 1e-9 {
		t.Fatalf("series = %v", s.Values)
	}
	if math.Abs(s.Times[0]-0.5) > 1e-9 {
		t.Fatalf("bucket midpoint = %g, want 0.5", s.Times[0])
	}
	if got := m.AverageGbps(2); math.Abs(got-2) > 1e-9 {
		t.Fatalf("AverageGbps = %g, want 2", got)
	}
	if got := m.AverageGbps(0); got != 0 {
		t.Fatalf("AverageGbps(0) = %g", got)
	}
}

func TestThroughputIgnoresBadSamples(t *testing.T) {
	m := NewThroughput(1)
	m.AddBytes(-1, 100)
	m.AddBytes(1, 0)
	m.AddBytes(1, -5)
	if m.TotalBytes() != 0 {
		t.Fatalf("bad samples accounted: %g", m.TotalBytes())
	}
}

func TestThroughputPanicsOnBadBucket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bucket width did not panic")
		}
	}()
	NewThroughput(0)
}

func TestAddRangeDistributesAcrossBuckets(t *testing.T) {
	m := NewThroughput(1)
	m.AddRange(0.5, 2.5, 2000) // 1000 B/s over [0.5, 2.5]
	if math.Abs(m.TotalBytes()-2000) > 1e-9 {
		t.Fatalf("TotalBytes = %g", m.TotalBytes())
	}
	s := m.SeriesGbps()
	wantBytes := []float64{500, 1000, 500}
	for i, w := range wantBytes {
		got := s.Values[i] * 1e9 / 8 // back to bytes in a 1s bucket
		if math.Abs(got-w) > 1e-6 {
			t.Fatalf("bucket %d = %g bytes, want %g", i, got, w)
		}
	}
}

func TestAddRangeDegenerate(t *testing.T) {
	m := NewThroughput(1)
	m.AddRange(1, 1, 100) // zero-width interval falls back to a point add
	if m.TotalBytes() != 100 {
		t.Fatalf("TotalBytes = %g", m.TotalBytes())
	}
	m.AddRange(2, 1, 100) // inverted interval ignored
	m.AddRange(0, 1, -5)  // negative bytes ignored
	if m.TotalBytes() != 100 {
		t.Fatalf("TotalBytes after bad adds = %g", m.TotalBytes())
	}
	m.AddRange(-2, 0.5, 50) // clipped at zero
	if math.Abs(m.TotalBytes()-150) > 1e-9 {
		t.Fatalf("TotalBytes after clipped add = %g", m.TotalBytes())
	}
}

// TestAddRangeBoundaryTermination regression-tests the float-rounding spin:
// intervals starting exactly on (or a hair below) a bucket edge must
// terminate and conserve bytes.
func TestAddRangeBoundaryTermination(t *testing.T) {
	m := NewThroughput(0.003)
	total := 0.0
	t0 := 0.0
	for i := 0; i < 10000; i++ {
		t1 := t0 + 0.000690000000001
		m.AddRange(t0, t1, 690)
		total += 690
		t0 = t1
	}
	if math.Abs(m.TotalBytes()-total) > total*1e-9 {
		t.Fatalf("TotalBytes = %g, want %g", m.TotalBytes(), total)
	}
}
