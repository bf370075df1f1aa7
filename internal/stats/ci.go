package stats

import "math"

// tCritical95 holds two-sided 95% Student-t critical values for degrees of
// freedom 1..30 (Abramowitz & Stegun table 26.10); beyond the table the
// value decays toward the normal quantile 1.960.
var tCritical95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided Student-t critical value at 95%
// confidence for df degrees of freedom. df <= 0 returns 0 (a confidence
// interval needs at least two observations).
func TCritical95(df int) float64 {
	switch {
	case df <= 0:
		return 0
	case df <= len(tCritical95):
		return tCritical95[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	}
	return 1.960
}

// CI95 returns the half-width of the two-sided 95% confidence interval of
// the summary's mean, t(df) · s / √n, or 0 with fewer than two
// observations: dispersion is unobservable from one sample.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return TCritical95(int(s.n-1)) * s.StdDev() / math.Sqrt(float64(s.n))
}
