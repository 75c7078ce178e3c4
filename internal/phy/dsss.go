package phy

import (
	"fmt"
	"math/rand"
)

// 802.11b DSSS at 1 Mbps: DBPSK with Barker-11 spreading (IEEE 802.11-2012
// §17). This exists for the HitchHike baseline, which piggybacks on
// 802.11b's symbol structure — the paper's related-work section contrasts
// DSSS's per-symbol codeword translation with WiTAG's OFDM-agnostic MAC
// approach.

// Barker11 is the 11-chip Barker sequence used by 802.11b.
var Barker11 = [11]float64{1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1}

// DSSSSpread differentially encodes data bits and spreads each resulting
// symbol over the Barker sequence, returning baseband chips.
func DSSSSpread(bits []byte) []float64 {
	chips := make([]float64, 0, (len(bits)+1)*11)
	phase := 1.0 // DBPSK reference symbol
	emit := func(p float64) {
		for _, c := range Barker11 {
			chips = append(chips, p*c)
		}
	}
	emit(phase)
	for _, b := range bits {
		if b&1 == 1 {
			phase = -phase // bit 1 ⇒ 180° phase change
		}
		emit(phase)
	}
	return chips
}

// DSSSDespread correlates chips against the Barker sequence and
// differentially decodes. It returns the recovered bits.
func DSSSDespread(chips []float64) ([]byte, error) {
	if len(chips)%11 != 0 {
		return nil, fmt.Errorf("phy: chip stream length %d not a multiple of 11", len(chips))
	}
	nsym := len(chips) / 11
	if nsym < 2 {
		return nil, fmt.Errorf("phy: need at least reference + one symbol, got %d", nsym)
	}
	corr := make([]float64, nsym)
	for s := 0; s < nsym; s++ {
		acc := 0.0
		for i, c := range Barker11 {
			acc += chips[s*11+i] * c
		}
		corr[s] = acc
	}
	bits := make([]byte, nsym-1)
	for s := 1; s < nsym; s++ {
		// Differential detection: product of successive correlations.
		if corr[s]*corr[s-1] < 0 {
			bits[s-1] = 1
		}
	}
	return bits, nil
}

// DSSSChannel applies a flat channel gain and AWGN to chips.
func DSSSChannel(chips []float64, gain, noiseStd float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(chips))
	for i, c := range chips {
		n := 0.0
		if rng != nil && noiseStd > 0 {
			n = rng.NormFloat64() * noiseStd
		}
		out[i] = c*gain + n
	}
	return out
}
