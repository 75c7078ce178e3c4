package stats

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := Split(parent)
	c2 := Split(parent)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Int63() == c2.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams collided %d/1000 times", same)
	}
}

func TestSplitDeterministicFromParentSeed(t *testing.T) {
	c1 := Split(NewRNG(99))
	c2 := Split(NewRNG(99))
	for i := 0; i < 50; i++ {
		if c1.Int63() != c2.Int63() {
			t.Fatal("Split is not a deterministic function of the parent seed")
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if Bernoulli(r, 0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(r, 1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(2)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestGaussianMoments(t *testing.T) {
	r := NewRNG(3)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = Gaussian(r, 5, 2)
	}
	if m := Mean(xs); math.Abs(m-5) > 0.05 {
		t.Fatalf("mean = %v, want ~5", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.05 {
		t.Fatalf("stddev = %v, want ~2", s)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(4)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = Exponential(r, 3)
	}
	if m := Mean(xs); math.Abs(m-3) > 0.1 {
		t.Fatalf("mean = %v, want ~3", m)
	}
	if Exponential(r, 0) != 0 {
		t.Fatal("Exponential with non-positive mean should be 0")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		x := Uniform(r, -2, 7)
		if x < -2 || x >= 7 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestRandomBitsAndBytes(t *testing.T) {
	r := NewRNG(6)
	bits := RandomBits(r, 1000)
	ones := 0
	for _, b := range bits {
		if b != 0 && b != 1 {
			t.Fatalf("non-bit value %d", b)
		}
		ones += int(b)
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("suspicious bit balance: %d ones of 1000", ones)
	}
	if got := len(RandomBytes(r, 33)); got != 33 {
		t.Fatalf("RandomBytes length = %d", got)
	}
}

// TestSeededBytesMatchesRandomBytes: SeededBytes, which releases its
// stream's register, must draw what RandomBytes draws from a fresh
// NewRNG stream of the same seed, for every size from 1 to 300 (short
// streams never build a register) and many seeds, with the registers on
// the stack left dirty by other streams that drew into them and were
// released just before.
func TestSeededBytesMatchesRandomBytes(t *testing.T) {
	seeds := rngSeeds()
	for n := 1; n <= 300; n++ {
		seed := seeds[n%len(seeds)] + int64(n)
		dirty := NewRNG(^seed)
		for range rngLen + n {
			dirty.Int63()
		}
		Release(dirty)
		got := SeededBytes(seed, n)
		if want := RandomBytes(NewRNG(seed), n); !bytes.Equal(got, want) {
			t.Fatalf("seed %d, %d bytes: SeededBytes %x, RandomBytes %x", seed, n, got, want)
		}
	}
}

// TestRandomBitsMatchesIntn pins RandomBits, and FillBits over a reused
// buffer of stale bytes, to the stream r.Intn(2) draws, which every
// seeded experiment's tag data was generated from: the same bits, and the
// generator left in the same state.
func TestRandomBitsMatchesIntn(t *testing.T) {
	buf := make([]byte, 997)
	for _, seed := range []int64{0, 1, 6, 42, -7, 1 << 40} {
		a, b, c := NewRNG(seed), NewRNG(seed), NewRNG(seed)
		for _, n := range []int{0, 1, 60, 997} {
			got := RandomBits(a, n)
			for i := range buf {
				buf[i] = 7
			}
			filled := buf[:n]
			FillBits(c, filled)
			for i := range got {
				want := byte(b.Intn(2))
				if got[i] != want {
					t.Fatalf("seed %d, n %d: bit %d = %d, Intn(2) gives %d", seed, n, i, got[i], want)
				}
				if filled[i] != want {
					t.Fatalf("seed %d, n %d: FillBits bit %d = %d, Intn(2) gives %d", seed, n, i, filled[i], want)
				}
			}
		}
		if x := a.Int63(); x != b.Int63() || x != c.Int63() {
			t.Fatalf("seed %d: generators diverged", seed)
		}
	}
}

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
	// Unbiased variance of this classic data set is 32/7.
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestMeanEmptyAndSingle(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of single sample != 0")
	}
}

func TestMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if v, err := Max(xs); err != nil || v != 9 {
		t.Fatalf("Max = %v, %v", v, err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatal("Max(nil) should return ErrEmpty")
	}
}

// cdfAt returns P(X <= x), the fraction of samples not exceeding x: the
// definition Quantile inverts.
func cdfAt(c *CDF, x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first sample strictly greater than x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := cdfAt(c, cse.x); got != cse.want {
			t.Fatalf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	q90, err := c.Quantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if q90 != 90 {
		t.Fatalf("p90 = %v, want 90", q90)
	}
	q0, _ := c.Quantile(0)
	if q0 != 10 {
		t.Fatalf("q0 = %v", q0)
	}
	if _, err := c.Quantile(1.5); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := NewCDF(nil).Quantile(0.5); err != ErrEmpty {
		t.Fatal("expected ErrEmpty")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		c := NewCDF(raw)
		prev := -1.0
		for _, x := range c.sorted {
			p := cdfAt(c, x)
			if p < prev || p <= 0 || p > 1 {
				return false
			}
			prev = p
		}
		return prev == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileAtInverseProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) {
				return true // NaN ordering is undefined; skip
			}
		}
		c := NewCDF(raw)
		for _, q := range []float64{0.1, 0.5, 0.9, 1.0} {
			v, err := c.Quantile(q)
			if err != nil {
				return false
			}
			if cdfAt(c, v) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFRenderContainsLabel(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3})
	out := c.Render(20, "test-label")
	if len(out) == 0 || !contains(out, "test-label") {
		t.Fatalf("render output missing label: %q", out)
	}
	if empty := NewCDF(nil).Render(20, "x"); !contains(empty, "n=0") {
		t.Fatal("empty CDF render should state n=0")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
