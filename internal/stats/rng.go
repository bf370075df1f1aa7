// Package stats provides the deterministic statistics substrate used by the
// whole repository: a seedable random number generator, samplers for the
// distributions that appear in the paper's workloads, summary statistics,
// percentile estimation, linear regression for queue-trend detection, and
// histograms.
//
// Everything here is deliberately dependency-free and deterministic given a
// seed, so that simulations and tests are reproducible bit-for-bit.
package stats

import "math"

// RNG is a small, fast, seedable pseudo-random number generator based on the
// PCG-XSH-RR 64/32 construction (O'Neill 2014) with a splitmix64-initialized
// state. It is not safe for concurrent use; each simulator owns its own RNG
// (or derives independent streams via Split).
type RNG struct {
	state uint64
	inc   uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Golden64 is splitmix64's increment, 2^64 divided by the golden ratio:
// the stride between consecutive splitmix64 inputs.
const Golden64 = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 finalizer (Steele, Lea & Flood 2014): a
// bijection on uint64 that spreads every input bit across the output.
// splitmix64's i-th output from seed s is Mix64(s + i·Golden64).
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Reseed resets the generator to the stream determined by seed.
func (r *RNG) Reseed(seed uint64) {
	// splitmix64 to spread low-entropy seeds across the whole state space.
	s := seed + Golden64
	r.state = Mix64(s)
	r.inc = Mix64(s+Golden64) | 1 // stream selector must be odd
	r.Uint32()                    // advance away from the seed-correlated first output
}

// Split derives an independent generator from r. The derived stream is
// deterministic given r's current state, and advancing the child does not
// affect the parent (beyond the two draws consumed here).
func (r *RNG) Split() *RNG {
	return NewRNG(uint64(r.Uint32())<<32 | uint64(r.Uint32()))
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at configuration time.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	carry := t >> 32
	t = aHi*bLo + carry
	mid1 := t & mask
	hi = t >> 32
	t = aLo*bHi + mid1
	lo |= (t & mask) << 32
	hi += aHi*bHi + (t >> 32)
	return hi, lo
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0, 1], so the log is finite.
	return -math.Log(1-u) / rate
}

// Pareto returns a bounded-Pareto-distributed value with shape alpha on
// [lo, hi]. Bounded Pareto is the standard model for heavy-tailed flow sizes
// with the 50MB cap observed in the DCTCP measurements.
func (r *RNG) Pareto(alpha, lo, hi float64) float64 {
	if alpha <= 0 || lo <= 0 || hi <= lo {
		panic("stats: Pareto with invalid parameters")
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the polar Box–Muller method.
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
