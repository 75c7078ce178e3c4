package phy

import (
	"bytes"
	"math"
	"testing"

	"witag/internal/dot11"
	"witag/internal/stats"
)

func encodeWithTail(bits []byte) []byte {
	padded := append(append([]byte(nil), bits...), make([]byte, 6)...)
	return ConvEncode(padded)
}

func TestConvEncodeRate(t *testing.T) {
	out := ConvEncode(make([]byte, 100))
	if len(out) != 200 {
		t.Fatalf("rate-1/2 output = %d bits for 100 in", len(out))
	}
}

func TestConvEncodeKnownStart(t *testing.T) {
	// From state 0, input 1: registers = 1000000; g0=133₈=1011011₂,
	// g1=171₈=1111001₂ tap the MSB ⇒ both output bits are 1.
	out := ConvEncode([]byte{1})
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("first transition output = %v", out[:2])
	}
	// Input 0 from state 0 keeps everything zero.
	out = ConvEncode([]byte{0})
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("zero transition output = %v", out[:2])
	}
}

func TestViterbiCleanDecode(t *testing.T) {
	rng := stats.NewRNG(2)
	data := stats.RandomBits(rng, 400)
	coded := encodeWithTail(data)
	dec, err := ViterbiDecode(coded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec[:len(data)], data) {
		t.Fatal("clean decode mismatch")
	}
}

func TestViterbiCorrectsScatteredErrors(t *testing.T) {
	rng := stats.NewRNG(3)
	data := stats.RandomBits(rng, 600)
	coded := encodeWithTail(data)
	// Flip ~2% of coded bits, spaced out (within the code's correction power).
	for i := 0; i < len(coded); i += 50 {
		coded[i] ^= 1
	}
	dec, err := ViterbiDecode(coded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec[:len(data)], data) {
		t.Fatal("Viterbi failed to correct 2% scattered errors")
	}
}

func TestViterbiFailsUnderHeavyCorruption(t *testing.T) {
	rng := stats.NewRNG(4)
	data := stats.RandomBits(rng, 400)
	coded := encodeWithTail(data)
	// Randomise 40% of coded bits: decoding must corrupt the data. This is
	// the regime a WiTAG-corrupted subframe lives in.
	for i := range coded {
		if stats.Bernoulli(rng, 0.4) {
			coded[i] ^= 1
		}
	}
	dec, err := ViterbiDecode(coded)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := bitsDistance(dec[:len(data)], data)
	if d == 0 {
		t.Fatal("40% coded-bit corruption decoded cleanly — implausible")
	}
}

func bitsDistance(a, b []byte) (int, error) {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d, nil
}

func TestViterbiOddLengthRejected(t *testing.T) {
	if _, err := ViterbiDecode(make([]byte, 3)); err == nil {
		t.Fatal("odd coded length accepted")
	}
	if _, err := ViterbiDecodeSoft(make([]float64, 5)); err == nil {
		t.Fatal("odd soft length accepted")
	}
}

func TestViterbiEmpty(t *testing.T) {
	if out, err := ViterbiDecode(nil); err != nil || len(out) != 0 {
		t.Fatal("empty decode should succeed with no output")
	}
	if out, err := ViterbiDecodeSoft(nil); err != nil || len(out) != 0 {
		t.Fatal("empty soft decode should succeed with no output")
	}
}

func TestPunctureRates(t *testing.T) {
	coded := make([]byte, 1200) // rate-1/2 mother bits
	cases := []struct {
		rate dot11.CodeRate
		want int
	}{
		{dot11.Rate12, 1200},
		{dot11.Rate23, 900},
		{dot11.Rate34, 800},
		{dot11.Rate56, 720},
	}
	for _, c := range cases {
		out, err := Puncture(coded, c.rate)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != c.want {
			t.Fatalf("rate %v: %d bits, want %d", c.rate, len(out), c.want)
		}
	}
	if _, err := Puncture(coded, dot11.CodeRate{Num: 7, Den: 8}); err == nil {
		t.Fatal("unsupported rate accepted")
	}
}

func TestDepunctureInvertsStructure(t *testing.T) {
	rng := stats.NewRNG(5)
	mother := stats.RandomBits(rng, 600)
	for _, rate := range []dot11.CodeRate{dot11.Rate12, dot11.Rate23, dot11.Rate34, dot11.Rate56} {
		p, err := Puncture(mother, rate)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Depuncture(p, rate, len(mother))
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if len(full) != len(mother) {
			t.Fatalf("rate %v: depunctured to %d bits", rate, len(full))
		}
		for i, b := range full {
			if b != erasure && b != mother[i] {
				t.Fatalf("rate %v: surviving bit %d altered", rate, i)
			}
		}
	}
}

func TestDepunctureLengthErrors(t *testing.T) {
	if _, err := Depuncture(make([]byte, 2), dot11.Rate34, 600); err == nil {
		t.Fatal("short punctured stream accepted")
	}
	if _, err := Depuncture(make([]byte, 600), dot11.Rate34, 8); err == nil {
		t.Fatal("leftover punctured bits accepted")
	}
}

func TestPuncturedViterbiRoundTrip(t *testing.T) {
	rng := stats.NewRNG(6)
	for _, rate := range []dot11.CodeRate{dot11.Rate23, dot11.Rate34, dot11.Rate56} {
		// Pick a data length that keeps every puncturing period whole.
		data := stats.RandomBits(rng, 594)
		coded := encodeWithTail(data)
		p, err := Puncture(coded, rate)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Depuncture(p, rate, len(coded))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := ViterbiDecode(full)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec[:len(data)], data) {
			t.Fatalf("rate %v: punctured round trip failed", rate)
		}
	}
}

// referenceViterbiHard is the dedicated integer hard-decision trellis
// ViterbiDecode used before it became a front end to the soft decoder:
// Hamming branch metrics, erasures skipped, strict-< survivor selection.
func referenceViterbiHard(coded []byte) []byte {
	n := len(coded) / 2
	if n == 0 {
		return nil
	}
	const inf = math.MaxInt32 / 2
	metric := make([]int32, convStates)
	next := make([]int32, convStates)
	for s := 1; s < convStates; s++ {
		metric[s] = inf
	}
	survivors := make([][convStates]uint8, n)
	for t := 0; t < n; t++ {
		c0, c1 := coded[2*t], coded[2*t+1]
		for s := range next {
			next[s] = inf
		}
		for s := 0; s < convStates; s++ {
			if metric[s] >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				o := convOutputs[s][in]
				var bm int32
				if c0 != erasure && o[0] != c0&1 {
					bm++
				}
				if c1 != erasure && o[1] != c1&1 {
					bm++
				}
				ns := in<<(convK-2) | s>>1
				m := metric[s] + bm
				if m < next[ns] {
					next[ns] = m
					survivors[t][ns] = uint8(in<<6) | uint8(s)&0x3F
				}
			}
		}
		metric, next = next, metric
	}
	best := 0
	for s := 1; s < convStates; s++ {
		if metric[s] < metric[best] {
			best = s
		}
	}
	out := make([]byte, n)
	state := best
	for t := n - 1; t >= 0; t-- {
		sv := survivors[t][state]
		out[t] = sv >> 6 & 1
		state = int(sv & 0x3F)
	}
	return out
}

// TestViterbiHardMatchesReference pins the hard decoder to the integer
// trellis it replaced, bit for bit, on random streams with bit flips and
// depunctured erasures at every code rate — including lengths too short
// to reach every state, and flip densities heavy enough to force ties.
func TestViterbiHardMatchesReference(t *testing.T) {
	rng := stats.NewRNG(17)
	rates := []dot11.CodeRate{dot11.Rate12, dot11.Rate23, dot11.Rate34, dot11.Rate56}
	for trial := 0; trial < 200; trial++ {
		rate := rates[trial%len(rates)]
		// 30k−6 data bits plus the 6-bit tail give a 60k-bit mother
		// stream: whole periods of every puncturing pattern.
		data := stats.RandomBits(rng, 30*(1+rng.Intn(8))-6)
		coded := encodeWithTail(data)
		flipProb := []float64{0, 0.02, 0.1, 0.3}[trial%4]
		for i := range coded {
			if rng.Float64() < flipProb {
				coded[i] ^= 1
			}
		}
		p, err := Puncture(coded, rate)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Depuncture(p, rate, len(coded))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ViterbiDecode(full)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceViterbiHard(full); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (rate %v, %d bits, flip %.2f): decoder diverged from the integer reference", trial, rate, len(full), flipProb)
		}
	}
	// Streams shorter than the constraint length leave states unreachable
	// at the end; erasure-only streams make every path tie.
	for n := 1; n <= 8; n++ {
		for _, fill := range []byte{0, 1, erasure} {
			coded := bytes.Repeat([]byte{fill}, 2*n)
			got, err := ViterbiDecode(coded)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceViterbiHard(coded); !bytes.Equal(got, want) {
				t.Fatalf("%d symbols of %d: got %v, want %v", n, fill, got, want)
			}
		}
	}
}

func TestSoftViterbiMatchesHardOnCleanInput(t *testing.T) {
	rng := stats.NewRNG(7)
	data := stats.RandomBits(rng, 300)
	coded := encodeWithTail(data)
	llr := make([]float64, len(coded))
	for i, b := range coded {
		if b == 0 {
			llr[i] = 4
		} else {
			llr[i] = -4
		}
	}
	dec, err := ViterbiDecodeSoft(llr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec[:len(data)], data) {
		t.Fatal("soft decode of clean LLRs failed")
	}
}

func TestSoftViterbiUsesConfidence(t *testing.T) {
	// Construct a case where two coded bits are wrong but marked
	// low-confidence; soft decoding must recover while weighting them down.
	rng := stats.NewRNG(8)
	data := stats.RandomBits(rng, 200)
	coded := encodeWithTail(data)
	llr := make([]float64, len(coded))
	for i, b := range coded {
		conf := 5.0
		if i%37 == 0 { // sparse wrong bits, weak confidence
			b ^= 1
			conf = 0.3
		}
		if b == 0 {
			llr[i] = conf
		} else {
			llr[i] = -conf
		}
	}
	dec, err := ViterbiDecodeSoft(llr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec[:len(data)], data) {
		t.Fatal("soft decode failed to exploit confidence")
	}
}
