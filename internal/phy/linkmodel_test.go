package phy

import (
	"math"
	"testing"

	"witag/internal/dot11"
)

func TestQFunc(t *testing.T) {
	if math.Abs(QFunc(0)-0.5) > 1e-12 {
		t.Fatalf("Q(0) = %v", QFunc(0))
	}
	// Q(1.96) ≈ 0.025.
	if math.Abs(QFunc(1.96)-0.025) > 1e-3 {
		t.Fatalf("Q(1.96) = %v", QFunc(1.96))
	}
	if QFunc(10) > 1e-20 {
		t.Fatalf("Q(10) = %v", QFunc(10))
	}
}

func TestUncodedBERMonotoneInSNR(t *testing.T) {
	for _, mod := range allMods() {
		prev := 1.0
		for db := -5.0; db <= 35; db += 2 {
			ber, err := UncodedBER(mod, SNRFromDb(db))
			if err != nil {
				t.Fatal(err)
			}
			if ber > prev+1e-15 {
				t.Fatalf("%v: BER not monotone at %v dB", mod, db)
			}
			prev = ber
		}
	}
	if _, err := UncodedBER(dot11.BPSK, -1); err == nil {
		t.Fatal("negative SNR accepted")
	}
	if _, err := UncodedBER(dot11.Modulation(88), 1); err == nil {
		t.Fatal("unknown modulation accepted")
	}
}

func TestUncodedBEROrderAcrossModulations(t *testing.T) {
	// At a fixed SNR, denser constellations must have higher BER.
	snr := SNRFromDb(12)
	var last float64
	for _, mod := range allMods() {
		ber, _ := UncodedBER(mod, snr)
		if ber < last {
			t.Fatalf("%v BER %v below sparser modulation's %v", mod, ber, last)
		}
		last = ber
	}
}

func TestUncodedBERKnownPoint(t *testing.T) {
	// BPSK at Eb/N0 = 9.6 dB has BER ≈ 1e-5 (classic reference point).
	ber, _ := UncodedBER(dot11.BPSK, SNRFromDb(9.6))
	if ber < 3e-6 || ber > 3e-5 {
		t.Fatalf("BPSK BER at 9.6 dB = %v, want ≈1e-5", ber)
	}
}

func TestCodedBERBelowUncodedAtModerateSNR(t *testing.T) {
	for idx := 0; idx <= 7; idx++ {
		mcs, _ := dot11.HTMCS(idx)
		snr := SNRFromDb(22)
		coded, err := CodedBER(mcs, snr)
		if err != nil {
			t.Fatal(err)
		}
		uncoded, _ := UncodedBER(mcs.Modulation, snr)
		if uncoded > 1e-12 && coded > uncoded {
			t.Fatalf("MCS%d: coded BER %v above uncoded %v at 22 dB", idx, coded, uncoded)
		}
	}
}

func TestCodedBERClampedAtLowSNR(t *testing.T) {
	mcs, _ := dot11.HTMCS(7)
	ber, err := CodedBER(mcs, SNRFromDb(-10))
	if err != nil {
		t.Fatal(err)
	}
	if ber > 0.5 {
		t.Fatalf("BER %v exceeds 0.5", ber)
	}
	if _, err := CodedBER(dot11.MCS{Modulation: dot11.BPSK, CodeRate: dot11.CodeRate{Num: 7, Den: 9}}, 1); err == nil {
		t.Fatal("unknown rate accepted")
	}
}

// p2 is pairwiseErrorProb with its logs taken from p.
func p2(d int, p float64) float64 {
	return pairwiseErrorProb(d, p, math.Log(p), math.Log1p(-p))
}

func TestPairwiseErrorProb(t *testing.T) {
	if p2(5, 0) != 0 {
		t.Fatal("P2 at p=0 must be 0")
	}
	if p2(5, 0.6) != 0.5 {
		t.Fatal("P2 clamps at p≥0.5")
	}
	// d=1: P2 = p.
	if math.Abs(p2(1, 0.1)-0.1) > 1e-12 {
		t.Fatalf("P2(1, 0.1) = %v", p2(1, 0.1))
	}
	// d=2: P2 = 0.5·C(2,1)p(1-p) + p² = p(1-p) + p².
	want := 0.1*0.9 + 0.01
	if math.Abs(p2(2, 0.1)-want) > 1e-12 {
		t.Fatalf("P2(2, 0.1) = %v, want %v", p2(2, 0.1), want)
	}
}

func TestSubframeSuccessProb(t *testing.T) {
	mcs, _ := dot11.HTMCS(2)
	// High SNR: success ≈ 1.
	p, err := SubframeSuccessProb(mcs, SNRFromDb(30), 30*8)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.999 {
		t.Fatalf("success at 30 dB = %v", p)
	}
	// Very low SNR: failure ≈ 1.
	p, _ = SubframeSuccessProb(mcs, SNRFromDb(-5), 30*8)
	if p > 0.01 {
		t.Fatalf("success at -5 dB = %v", p)
	}
	if _, err := SubframeSuccessProb(mcs, 1, 0); err == nil {
		t.Fatal("zero-length MPDU accepted")
	}
}

func TestDistortionAfterCPE(t *testing.T) {
	// Identical channels: zero distortion.
	h := []complex128{1, 1 + 0.2i, 0.8}
	d, err := DistortionAfterCPE(h, h)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-15 {
		t.Fatalf("distortion of identical channels = %v", d)
	}
	// A pure common rotation must be fully absorbed.
	rot := make([]complex128, len(h))
	for i, v := range h {
		rot[i] = rotate(v, 0.7)
	}
	d, _ = DistortionAfterCPE(rot, h)
	if d > 1e-12 {
		t.Fatalf("common rotation not absorbed: %v", d)
	}
	// A frequency-selective divergence must NOT be absorbed.
	sel := make([]complex128, len(h))
	for i, v := range h {
		sel[i] = rotate(v, 0.9*float64(i))
	}
	d, _ = DistortionAfterCPE(sel, h)
	if d < 0.1 {
		t.Fatalf("frequency-selective change absorbed: %v", d)
	}
	if _, err := DistortionAfterCPE(h, h[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := DistortionAfterCPE(nil, nil); err == nil {
		t.Fatal("empty channels accepted")
	}
}

func TestDistortionHandlesZeroEstimate(t *testing.T) {
	// A null in the estimated channel must not panic or produce NaN.
	d, err := DistortionAfterCPE([]complex128{1, 1}, []complex128{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(d) || math.IsInf(d, 0) {
		t.Fatalf("distortion = %v", d)
	}
}

func TestEffectiveSINR(t *testing.T) {
	// No distortion: SINR = SNR.
	if got := EffectiveSINR(100, 0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("SINR = %v", got)
	}
	// Dominant distortion: saturates at 1/D regardless of SNR.
	if got := EffectiveSINR(1e12, 0.5); math.Abs(got-2) > 1e-6 {
		t.Fatalf("SINR = %v, want 2", got)
	}
	if EffectiveSINR(0, 0.5) != 0 {
		t.Fatal("zero SNR should give zero SINR")
	}
}

func TestSNRDbRoundTrip(t *testing.T) {
	for _, db := range []float64{-10, 0, 3, 20} {
		if got := SNRToDb(SNRFromDb(db)); math.Abs(got-db) > 1e-9 {
			t.Fatalf("dB round trip: %v → %v", db, got)
		}
	}
	if !math.IsInf(SNRToDb(0), -1) {
		t.Fatal("SNRToDb(0) should be -Inf")
	}
}

func TestRobustMCSSelection(t *testing.T) {
	const mpduBits = 30 * 8
	// Generous SNR: the highest single-stream MCS qualifies.
	m, err := RobustMCS(SNRFromDb(35), mpduBits, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if m.Index != 7 {
		t.Fatalf("at 35 dB picked MCS%d", m.Index)
	}
	// Moderate SNR: picks something in the middle.
	m, err = RobustMCS(SNRFromDb(14), mpduBits, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if m.Index <= 0 || m.Index >= 7 {
		t.Fatalf("at 14 dB picked MCS%d", m.Index)
	}
	// Hopeless SNR: no MCS qualifies.
	if _, err := RobustMCS(SNRFromDb(-10), mpduBits, 0.999); err == nil {
		t.Fatal("MCS selected at -10 dB")
	}
}

func TestRobustMCSMonotoneInSNR(t *testing.T) {
	const mpduBits = 30 * 8
	last := -1
	for db := 5.0; db <= 35; db += 1 {
		m, err := RobustMCS(SNRFromDb(db), mpduBits, 0.999)
		if err != nil {
			continue
		}
		if m.Index < last {
			t.Fatalf("robust MCS regressed from %d to %d at %v dB", last, m.Index, db)
		}
		last = m.Index
	}
	if last != 7 {
		t.Fatalf("never reached MCS7 (last=%d)", last)
	}
}
