package phy

import (
	"bytes"
	"testing"
	"testing/quick"

	"witag/internal/stats"
)

func TestBarkerAutocorrelation(t *testing.T) {
	// The Barker-11 sequence has peak autocorrelation 11 and off-peak
	// magnitudes ≤ 1 — the property that gives DSSS its processing gain.
	for shift := 1; shift < 11; shift++ {
		acc := 0.0
		for i := 0; i < 11-shift; i++ {
			acc += Barker11[i] * Barker11[i+shift]
		}
		if acc > 1.01 || acc < -1.01 {
			t.Fatalf("off-peak autocorrelation at shift %d: %v", shift, acc)
		}
	}
}

func TestDSSSRoundTripProperty(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		if len(bits) == 0 {
			return true
		}
		chips := DSSSSpread(bits)
		got, err := DSSSDespread(chips)
		if err != nil {
			return false
		}
		return bytes.Equal(got, bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDSSSRobustToChipNoise(t *testing.T) {
	rng := stats.NewRNG(40)
	bits := stats.RandomBits(rng, 500)
	chips := DSSSSpread(bits)
	// Heavy per-chip noise: the 11x processing gain must still deliver
	// clean bits.
	noisy := DSSSChannel(chips, 1.0, 0.8, stats.NewRNG(41))
	got, err := DSSSDespread(noisy)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range bits {
		if got[i] != bits[i] {
			errs++
		}
	}
	if errs > 5 {
		t.Fatalf("%d/500 bit errors at chip SNR ≈ 2 dB", errs)
	}
}

func TestDSSSDespreadValidation(t *testing.T) {
	if _, err := DSSSDespread(make([]float64, 10)); err == nil {
		t.Fatal("non-multiple of 11 accepted")
	}
	if _, err := DSSSDespread(make([]float64, 11)); err == nil {
		t.Fatal("reference-only stream accepted")
	}
}

func TestDSSSChannelNoNoiseWithNilRNG(t *testing.T) {
	chips := []float64{1, -1, 1}
	out := DSSSChannel(chips, 2, 0.5, nil)
	for i, c := range chips {
		if out[i] != c*2 {
			t.Fatal("nil RNG should disable noise")
		}
	}
}
