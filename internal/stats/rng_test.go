package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at draw %d: %d != %d", i, got, want)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Drawing from the child must not change what the parent produces next.
	ref := NewRNG(7)
	refChild := ref.Split()
	_ = refChild
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatalf("parent stream perturbed by child draws at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(5)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Float64())
	}
	if got := s.Mean(); math.Abs(got-0.5) > 0.005 {
		t.Fatalf("uniform mean = %g, want ~0.5", got)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7) value %d drawn %d times out of 70000, badly skewed", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(13)
	const rate = 2.5
	var s Summary
	for i := 0; i < 200000; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp produced negative value %g", v)
		}
		s.Add(v)
	}
	want := 1 / rate
	if got := s.Mean(); math.Abs(got-want)/want > 0.02 {
		t.Fatalf("Exp(%g) mean = %g, want ~%g", rate, got, want)
	}
}

func TestParetoBoundsAndMean(t *testing.T) {
	r := NewRNG(17)
	p := BoundedPareto{Alpha: 1.2, Lo: 1000, Hi: 5e7}
	var s Summary
	for i := 0; i < 300000; i++ {
		v := p.Sample(r)
		if v < p.Lo || v > p.Hi {
			t.Fatalf("Pareto sample %g out of [%g, %g]", v, p.Lo, p.Hi)
		}
		s.Add(v)
	}
	want := p.Mean()
	if got := s.Mean(); math.Abs(got-want)/want > 0.1 {
		t.Fatalf("bounded Pareto mean = %g, want ~%g", got, want)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(19)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Norm(10, 3))
	}
	if got := s.Mean(); math.Abs(got-10) > 0.05 {
		t.Fatalf("Norm mean = %g, want ~10", got)
	}
	if got := s.StdDev(); math.Abs(got-3) > 0.05 {
		t.Fatalf("Norm stddev = %g, want ~3", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMul64AgainstBig(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0},
		{1, 1},
		{math.MaxUint64, math.MaxUint64},
		{math.MaxUint64, 2},
		{0xdeadbeefcafebabe, 0x123456789abcdef0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		// Verify via the identity (a*b) mod 2^64 == lo and a 128-bit check
		// through decomposition.
		if lo != c.a*c.b {
			t.Fatalf("mul64(%d,%d) lo = %d, want %d", c.a, c.b, lo, c.a*c.b)
		}
		// Cross-check hi using per-32-bit long multiplication.
		aLo, aHi := c.a&0xffffffff, c.a>>32
		bLo, bHi := c.b&0xffffffff, c.b>>32
		carry := (aLo*bLo)>>32 + (aHi*bLo+aLo*bHi)&0xffffffff>>0
		_ = carry
		wantHi := aHi*bHi + (aHi*bLo)>>32 + (aLo*bHi)>>32
		// Account for carries from the middle terms.
		mid := (aLo*bLo)>>32 + (aHi*bLo)&0xffffffff + (aLo*bHi)&0xffffffff
		wantHi += mid >> 32
		if hi != wantHi {
			t.Fatalf("mul64(%d,%d) hi = %d, want %d", c.a, c.b, hi, wantHi)
		}
	}
}

// TestMix64MatchesSplitMix64: Mix64 over the Golden64 stride reproduces
// splitmix64's published outputs for seed 0.
func TestMix64MatchesSplitMix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var s uint64
	for i, w := range want {
		s += Golden64
		if got := Mix64(s); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
}
