// Package stats provides deterministic random-number plumbing and the
// descriptive statistics used throughout the WiTAG simulator: empirical
// CDFs, percentiles, confidence intervals and histograms.
//
// Every source of randomness in the repository flows through an explicit
// *rand.Rand created by NewRNG so that experiments are reproducible from a
// single seed. No package in this module ever reads the wall clock for
// entropy.
package stats

import (
	"math"
	"math/rand"
)

// NewRNG returns a deterministic pseudo-random source for the given seed.
// Independent subsystems (channel fading, tag clock jitter, MAC backoff...)
// should each derive their own source via Split so that adding draws to one
// subsystem does not perturb the others.
//
// The stream is rand.New(rand.NewSource(seed))'s bit for bit, but the
// source's 607-word state is built only on the 17th draw (source.go), so
// a short stream costs one small allocation.
func NewRNG(seed int64) *rand.Rand {
	seedTablesOnce.Do(buildSeedTables)
	l := new(lazyRand)
	l.src.Seed(seed)
	l.r = *rand.New(&l.src)
	return &l.r
}

// Release ends stream r, which NewRNG or Split returned, and gives its
// register to the next stream that builds one. A later draw from r, or a
// reseed, panics. Releasing nil or an already released stream does
// nothing; releasing a stream of any other origin panics. A stream that is
// never released is garbage-collected as any other value.
func Release(r *rand.Rand) {
	if r == nil {
		return
	}
	l := lazyRandOf(r)
	if l == nil {
		panic("stats: Release of a stream NewRNG did not return")
	}
	l.src.release()
}

// Split derives a new independent generator from r. The derived stream is a
// deterministic function of r's current state, so a parent seed fully
// determines the whole tree of generators.
func Split(r *rand.Rand) *rand.Rand {
	// Mix two draws so that consecutive Splits do not produce
	// trivially-correlated child seeds.
	a := r.Int63()
	b := r.Int63()
	return NewRNG(a ^ (b << 1) ^ 0x1e3779b97f4a7c15)
}

// Bernoulli returns true with probability p using r.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Gaussian returns a normally distributed sample with the given mean and
// standard deviation.
func Gaussian(r *rand.Rand, mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Exponential returns an exponentially distributed sample with the given
// mean (not rate).
func Exponential(r *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}

// Poisson returns a Poisson-distributed sample with the given mean, via
// Knuth's product-of-uniforms method. The mean is clamped to 64 — the
// callers draw per-round arrival counts where the useful range is single
// digits, and the clamp keeps the draw count (and thus the RNG stream)
// bounded.
func Poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		mean = 64
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Uniform returns a sample uniformly distributed in [lo, hi).
func Uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// RandomBits fills a fresh slice of n pseudo-random bits (0 or 1).
func RandomBits(r *rand.Rand, n int) []byte {
	bits := make([]byte, n)
	FillBits(r, bits)
	return bits
}

// FillBits overwrites b with pseudo-random bits (0 or 1), drawing what
// RandomBits(r, len(b)) draws.
func FillBits(r *rand.Rand, b []byte) {
	for i := range b {
		// Exactly r.Intn(2): math/rand takes a power-of-two bound's draw
		// from bit 32 of Int63.
		b[i] = byte(r.Int63() >> 32 & 1)
	}
}

// RandomBytes fills a fresh slice of n pseudo-random bytes.
func RandomBytes(r *rand.Rand, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(r.Intn(256))
	}
	return buf
}

// SeededBytes returns n pseudo-random bytes from a stream of its own,
// seeded with seed, and releases that stream: RandomBytes(NewRNG(seed), n)
// without leaving a register to the collector.
func SeededBytes(seed int64, n int) []byte {
	r := NewRNG(seed)
	defer Release(r)
	return RandomBytes(r, n)
}
