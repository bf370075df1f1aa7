package stats

import (
	"math"
	"testing"
)

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{0, 0}, {-3, 0},
		{1, 12.706}, {4, 2.776}, {10, 2.228}, {30, 2.042},
		{35, 2.021}, {50, 2.000}, {100, 1.980}, {1000, 1.960},
	}
	for _, c := range cases {
		if got := TCritical95(c.df); got != c.want {
			t.Fatalf("TCritical95(%d) = %g, want %g", c.df, got, c.want)
		}
	}
	// The sequence must be monotone non-increasing: more data never widens
	// the interval multiplier.
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := TCritical95(df)
		if v > prev {
			t.Fatalf("TCritical95 not monotone at df=%d: %g > %g", df, v, prev)
		}
		prev = v
	}
}

// summarize feeds values into a fresh Summary.
func summarize(values []float64) *Summary {
	var s Summary
	for _, v := range values {
		s.Add(v)
	}
	return &s
}

// TestMeanCI95 checks Summary's mean and 95% half-width on a case worked
// out by hand.
func TestMeanCI95(t *testing.T) {
	// {1,2,3,4,5}: mean 3, s = sqrt(2.5), df 4 → half = 2.776·s/√5.
	s := summarize([]float64{1, 2, 3, 4, 5})
	wantHalf := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(s.Mean()-3) > 1e-12 || math.Abs(s.CI95()-wantHalf) > 1e-12 {
		t.Fatalf("mean CI = %g ± %g, want 3 ± %g", s.Mean(), s.CI95(), wantHalf)
	}
}

// TestSummaryCI95MatchesMeanCI95 checks the streaming Summary against the
// mean confidence interval computed from its definition, t(n-1) · s / √n
// with a two-pass sample variance.
func TestSummaryCI95MatchesMeanCI95(t *testing.T) {
	values := []float64{0.3, 1.9, -2.5, 8, 4.4, 0.01}
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	ss := 0.0
	for _, v := range values {
		ss += (v - mean) * (v - mean)
	}
	wantHalf := 2.571 * math.Sqrt(ss/5) / math.Sqrt(6)
	s := summarize(values)
	if math.Abs(s.Mean()-mean) > 1e-12 || math.Abs(s.CI95()-wantHalf) > 1e-12 {
		t.Fatalf("mean CI = %g ± %g, want %g ± %g", s.Mean(), s.CI95(), mean, wantHalf)
	}
}

func TestCI95DegenerateInputs(t *testing.T) {
	for _, values := range [][]float64{nil, {7}, {4, 4, 4, 4}} {
		if half := summarize(values).CI95(); half != 0 {
			t.Fatalf("%v: half = %g, want 0", values, half)
		}
	}
}
