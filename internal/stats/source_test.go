package stats

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// rngSeeds are the seeds TestNewRNGMatchesMathRand holds NewRNG to:
// math/rand's reduction edges (0, negatives, multiples of 2³¹−1, the
// int64 extremes) and the labelled seeds the experiments derive.
func rngSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 42, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, 3 * int32max, -5 * int32max,
		int32max - 1, int32max + 1, 1 << 31, 1 << 62,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	for i := 0; i < 300; i++ {
		seeds = append(seeds, SubSeed(int64(i), "rng", strconv.Itoa(i)))
	}
	return seeds
}

// rngOp is one call on a *rand.Rand, reduced to a comparable value.
type rngOp func(r *rand.Rand) uint64

// rngOps covers every Rand method the repository's code calls, and the
// rest of the v1 surface, each reduced to the bits it returned.
var rngOps = []rngOp{
	func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
	func(r *rand.Rand) uint64 { return r.Uint64() },
	func(r *rand.Rand) uint64 { return uint64(r.Uint32()) },
	func(r *rand.Rand) uint64 { return uint64(r.Int31()) },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
	func(r *rand.Rand) uint64 { return uint64(math.Float32bits(r.Float32())) },
	func(r *rand.Rand) uint64 { return uint64(r.Intn(2)) },
	func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) },
	func(r *rand.Rand) uint64 { return uint64(r.Intn(1 << 40)) },
	func(r *rand.Rand) uint64 { return uint64(r.Int31n(7)) },
	func(r *rand.Rand) uint64 { return uint64(r.Int63n(1<<62 + 3)) },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) },
	func(r *rand.Rand) uint64 {
		h := uint64(0)
		for _, v := range r.Perm(9) {
			h = h*31 + uint64(v)
		}
		return h
	},
	func(r *rand.Rand) uint64 {
		s := []int{0, 1, 2, 3, 4, 5}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		h := uint64(0)
		for _, v := range s {
			h = h*31 + uint64(v)
		}
		return h
	},
	func(r *rand.Rand) uint64 {
		var b [5]byte
		r.Read(b[:])
		h := uint64(0)
		for _, v := range b {
			h = h<<8 | uint64(v)
		}
		return h
	},
}

// reseedOp stands for a Seed call in an op list.
const reseedOp = -1

// compareStreams runs the same call sequence on NewRNG(seed) and on
// math/rand v1 and reports the first call whose result differs.
func compareStreams(t *testing.T, seed int64, ops []int, reseeds []int64) {
	t.Helper()
	compareStream(t, NewRNG(seed), seed, ops, reseeds)
}

// compareStream runs the call sequence on got, which must draw
// rand.NewSource(seed)'s stream, and on math/rand v1.
func compareStream(t *testing.T, got *rand.Rand, seed int64, ops []int, reseeds []int64) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for i, op := range ops {
		if op == reseedOp {
			s := reseeds[i%len(reseeds)]
			got.Seed(s)
			want.Seed(s)
			continue
		}
		if g, w := rngOps[op](got), rngOps[op](want); g != w {
			t.Fatalf("seed %d: call %d (op %d) = %#x, math/rand gives %#x", seed, i, op, g, w)
		}
	}
}

// TestNewRNGMatchesMathRand pins NewRNG's stream to math/rand v1's bit
// for bit: plain Int63 runs well past the 16 draws answered from the
// seed and the 607-word register's first wrap, then a mix of every
// method with reseeds in between.
func TestNewRNGMatchesMathRand(t *testing.T) {
	const draws = 1400 // > 2·607: crosses 16, 273, 334 and 607
	plain := make([]int, draws)
	mixed := make([]int, draws)
	for i := range mixed {
		mixed[i] = (i*7 + i/13) % len(rngOps)
		if i%331 == 330 {
			mixed[i] = reseedOp
		}
	}
	reseeds := []int64{0, -3, 1 << 40, 89482311}
	for _, seed := range rngSeeds() {
		compareStreams(t, seed, plain, reseeds)
		compareStreams(t, seed, mixed, reseeds)
	}
	// Every prefix length around the lazy window's edge, so the register
	// is built after each possible number of seed-answered draws.
	for n := 0; n <= lazyDraws+2; n++ {
		for _, op := range []int{0, 1} {
			ops := make([]int, 0, n+rngLen+5)
			for i := 0; i < n; i++ {
				ops = append(ops, op)
			}
			ops = append(ops, reseedOp)
			for i := 0; i < rngLen+4; i++ {
				ops = append(ops, 1-op)
			}
			compareStreams(t, int64(n)*977, ops, []int64{int64(n)})
		}
	}
}

// TestNewRNGMatchesMathRandOnReusedRegisters holds a stream whose
// register was used before to math/rand v1's stream: one built on a
// dirty register a reseed kept, one on a register a released stream gave
// to the pool, and one reseeded through rand.Rand.Seed after its register
// was built. The register's old words must not reach a draw.
func TestNewRNGMatchesMathRandOnReusedRegisters(t *testing.T) {
	const draws = 1400
	plain := make([]int, draws)
	mixed := make([]int, draws)
	for i := range mixed {
		mixed[i] = (i*5 + i/11) % len(rngOps)
	}
	for i, seed := range rngSeeds()[:60] {
		// A register full of garbage, kept by a reseed.
		dirty := NewRNG(seed)
		spare := new([rngLen]uint64)
		for j := range spare {
			spare[j] = ^uint64(j) * 0x9E3779B97F4A7C15
		}
		lazyRandOf(dirty).src.spare = spare
		compareStream(t, dirty, seed, mixed, []int64{seed})

		// Registers a released stream gave back, then drew into again.
		old := NewRNG(int64(i) + 1e6)
		for range rngLen + i {
			old.Int63()
		}
		Release(old)
		compareStreams(t, seed, plain, []int64{seed})

		// A built register reseeded through rand.Rand.Seed.
		reseeded := NewRNG(-seed)
		for range lazyDraws + 1 + i {
			reseeded.Uint64()
		}
		reseeded.Seed(seed)
		compareStream(t, reseeded, seed, mixed, []int64{seed})
	}
}

// TestReleasedStreamPanics: a draw from a released stream, or a reseed,
// panics rather than drawing; releasing nil or twice does nothing; and a
// stream NewRNG did not make is refused.
func TestReleasedStreamPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, built := range []bool{false, true} {
		r := NewRNG(7)
		if built {
			for range rngLen {
				r.Int63()
			}
		}
		Release(r)
		Release(r)
		for i, op := range rngOps {
			mustPanic("op "+strconv.Itoa(i)+" after Release", func() { op(r) })
		}
		mustPanic("Seed after Release", func() { r.Seed(1) })
	}
	Release(nil)
	mustPanic("Release of a math/rand stream", func() { Release(rand.New(rand.NewSource(1))) })
}

// FuzzNewRNGMatchesMathRand runs arbitrary call sequences against math/rand
// v1: each input byte picks a method, or a reseed to the fuzzed seed
// offset by the byte.
func FuzzNewRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2})
	f.Add(int64(42), make([]byte, 40))
	f.Add(int64(-1), []byte("\x0b\x0c\x0d\x0e\x0f\xff\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x00\x01"))
	f.Add(int64(math.MinInt64), []byte{255, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		ops := make([]int, 0, len(prog)+rngLen)
		reseeds := make([]int64, len(prog)+1)
		for i, b := range prog {
			if int(b) >= 2*len(rngOps) {
				ops = append(ops, reseedOp)
				reseeds[i] = seed + int64(b)
				continue
			}
			ops = append(ops, int(b)%len(rngOps))
		}
		// Always draw past the register build.
		for i := 0; i < rngLen; i++ {
			ops = append(ops, 0)
		}
		compareStreams(t, seed, ops, reseeds)
	})
}

// TestNewRNGCheap holds a short stream to one small allocation: NewRNG
// plus the 16 draws answered from the seed. math/rand v1 takes 5,376 B.
func TestNewRNGCheap(t *testing.T) {
	NewRNG(1).Int63() // build the shared tables outside the count
	var sink int64
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		r := NewRNG(sink)
		for i := 0; i < lazyDraws; i++ {
			sink += r.Int63()
		}
	})
	if allocs > 1 {
		t.Fatalf("NewRNG + %d draws: %v allocations, want ≤ 1", lazyDraws, allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r := NewRNG(int64(i))
		for j := 0; j < lazyDraws; j++ {
			sink += r.Int63()
		}
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > 256 {
		t.Fatalf("NewRNG + %d draws: %d B, want ≤ 256", lazyDraws, bytes)
	}
}

var benchSink int64

func BenchmarkNewRNG(b *testing.B) {
	for _, draws := range []int{1, lazyDraws, 100} {
		b.Run("draws="+strconv.Itoa(draws), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRNG(int64(i))
				for j := 0; j < draws; j++ {
					benchSink += r.Int63()
				}
			}
		})
		b.Run("mathrand/draws="+strconv.Itoa(draws), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for j := 0; j < draws; j++ {
					benchSink += r.Int63()
				}
			}
		})
	}
}

func BenchmarkRNGInt63(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < rngLen; i++ {
		r.Int63()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += r.Int63()
	}
}
