package stats

import (
	"math/rand"
	"sync"
)

// A lazily seeded math/rand v1 source.
//
// rand.NewSource(seed) is an additive lagged Fibonacci generator over a
// 607-word register. Seeding fills the register from a Lehmer chain,
// x_{n+1} = 48271·x_n mod (2³¹−1), with
//
//	vec[i] = (x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i}) ^ rngCooked[i]
//
// which costs about 1,800 chained steps and 4.9 KB per source, whether
// the stream is then drawn from twice or a million times. Most streams
// here are short: an LT symbol's block set, a world's per-trial
// components. Since x_n = x_0·48271ⁿ mod (2³¹−1), any register word is
// three multiplications against a table of powers, so source computes
// words only when a draw reads them.
//
// Draw k (from 1) sets vec[334−k] += vec[607−k] and returns the sum. For
// k ≤ 273 both words are still as seeded, and the word written is read
// by no later draw up to 273. So the first lazyDraws draws read the seed
// alone, and on the next one source builds the register and replays
// them. The stream equals rand.NewSource(seed)'s draw for draw
// (TestNewRNGMatchesMathRand).

const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	int32max  = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerMul = 48271
	// lazyDraws is how many draws read the seed directly before the
	// register is built. Any count up to rngTap is exact; 16 covers an
	// LT symbol's draws, and wider windows measured no faster.
	lazyDraws = 16
)

var (
	seedTablesOnce sync.Once
	// lehmerPow[n] is 48271ⁿ mod (2³¹−1), for every x_n seeding reads.
	lehmerPow [23 + 3*(rngLen-1) + 1]uint64
	// rngCooked is math/rand's unexported seeding table.
	rngCooked [rngLen]uint64
)

// buildSeedTables fills lehmerPow and recovers rngCooked from the first
// rngLen outputs of rand.NewSource(1). With d(k) the k-th output and v
// the seeded register, a draw's tap reads the word written 273 draws
// earlier from k = 274 on, so
//
//	v[334−k] = d(k) − d(k−273)   for 274 ≤ k ≤ 334
//	v[941−k] = d(k) − d(k−273)   for 335 ≤ k ≤ 607
//	v[334−k] = d(k) − v[607−k]   for 1 ≤ k ≤ 273
//
// and rngCooked[i] = v[i] ^ the Lehmer words of seed 1.
func buildSeedTables() {
	p := uint64(1)
	for n := range lehmerPow {
		lehmerPow[n] = p
		p = p * lehmerMul % int32max
	}
	src := rand.NewSource(1).(rand.Source64)
	var d [rngLen + 1]uint64 // d[k] is draw k
	for k := 1; k <= rngLen; k++ {
		d[k] = src.Uint64()
	}
	var v [rngLen]uint64
	for k := rngTap + 1; k <= rngLen-rngTap; k++ {
		v[rngLen-rngTap-k] = d[k] - d[k-rngTap]
	}
	for k := rngLen - rngTap + 1; k <= rngLen; k++ {
		v[2*rngLen-rngTap-k] = d[k] - d[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = d[k] - v[rngLen-k]
	}
	for i := range v {
		rngCooked[i] = v[i] ^ lehmerWord(1, i)
	}
}

// lehmerMulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−2].
func lehmerMulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// lehmerWord is register word i's Lehmer part for the reduced seed x0.
func lehmerWord(x0 uint64, i int) uint64 {
	n := 21 + 3*i
	return lehmerMulMod(x0, lehmerPow[n])<<40 ^
		lehmerMulMod(x0, lehmerPow[n+1])<<20 ^
		lehmerMulMod(x0, lehmerPow[n+2])
}

// source is rand.NewSource's generator, seeded lazily. Until vec is
// built, n counts the draws taken from the seed.
type source struct {
	x0        uint64 // the seed reduced as math/rand reduces it
	n         int
	tap, feed int
	vec       *[rngLen]uint64
}

// Seed resets s to rand.NewSource(seed)'s initial state.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = source{x0: uint64(seed)}
}

// Int63 keeps the built register's draw in its own body: routing it
// through Uint64 costs a call on every draw.
func (s *source) Int63() int64 {
	vec := s.vec
	if vec == nil {
		return int64(s.lazy() & rngMask)
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := vec[s.feed] + vec[s.tap]
	vec[s.feed] = x
	return int64(x & rngMask)
}

func (s *source) Uint64() uint64 {
	vec := s.vec
	if vec == nil {
		return s.lazy()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := vec[s.feed] + vec[s.tap]
	vec[s.feed] = x
	return x
}

// lazy answers a draw from the seed, or builds the register once
// lazyDraws draws have been answered and draws from it.
func (s *source) lazy() uint64 {
	if s.n < lazyDraws {
		s.n++
		feed, tap := rngLen-rngTap-s.n, rngLen-s.n
		return (lehmerWord(s.x0, feed) ^ rngCooked[feed]) + (lehmerWord(s.x0, tap) ^ rngCooked[tap])
	}
	vec := new([rngLen]uint64)
	for i := range vec {
		vec[i] = lehmerWord(s.x0, i) ^ rngCooked[i]
	}
	for k := 1; k <= s.n; k++ {
		vec[rngLen-rngTap-k] += vec[rngLen-k]
	}
	s.vec, s.tap, s.feed = vec, rngLen-s.n, rngLen-rngTap-s.n
	return s.Uint64()
}

// lazyRand puts a Rand and its source in one allocation.
type lazyRand struct {
	r   rand.Rand
	src source
}
