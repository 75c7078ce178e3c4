package phy

import (
	"math"
	"testing"

	"witag/internal/dot11"
	"witag/internal/stats"
)

// TestLinkModelCalibratedAgainstBitTrueChain is the keystone of the
// two-level fidelity argument in DESIGN.md §5: at several SNR points the
// analytic subframe success probability must agree with the measured
// success rate of the bit-true TX→AWGN→RX chain, so that minute-long
// experiments run on the analytic model inherit bit-true behaviour.
func TestLinkModelCalibratedAgainstBitTrueChain(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	const mpduLen = 30 // QoS null MPDU incl. FCS
	cfg := DefaultConfig()
	mcs, _ := dot11.HTMCS(2) // QPSK 3/4
	cfg.MCS = mcs

	// Points spanning pass, waterfall, and fail regions for QPSK 3/4.
	for _, db := range []float64{4, 7, 9, 12} {
		snr := SNRFromDb(db)
		want, err := SubframeSuccessProb(mcs, snr, mpduLen*8)
		if err != nil {
			t.Fatal(err)
		}
		const trials = 120
		succ := 0
		rng := stats.NewRNG(int64(1000 + db*10))
		for trial := 0; trial < trials; trial++ {
			psdu := stats.RandomBytes(rng, mpduLen)
			wf, err := Transmit(psdu, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rx := ApplyChannel(wf, flatChannel, 1/snr, rng)
			csi, err := EstimateCSI(rx.LTF)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Receive(rx, csi, false)
			if err != nil {
				t.Fatal(err)
			}
			if bytesEqual(res.PSDU, psdu) {
				succ++
			}
		}
		got := float64(succ) / trials
		// The union bound is approximate and the bit-true chain sees CSI
		// estimation noise; demand agreement within 0.25 absolute in the
		// waterfall and matching saturation at the extremes.
		if want > 0.99 && got < 0.9 {
			t.Fatalf("%v dB: model says pass (%v) but chain failed (%v)", db, want, got)
		}
		if want < 0.01 && got > 0.1 {
			t.Fatalf("%v dB: model says fail (%v) but chain passed (%v)", db, want, got)
		}
		if math.Abs(got-want) > 0.3 {
			t.Fatalf("%v dB: model %v vs measured %v", db, want, got)
		}
	}
}

// TestDistortionModelMatchesCorruptionOutcome verifies that the analytic
// corruption predicate (EffectiveSINR from DistortionAfterCPE) agrees with
// the bit-true chain about whether a tag reflection of a given strength
// corrupts a subframe.
func TestDistortionModelMatchesCorruptionOutcome(t *testing.T) {
	cfg := DefaultConfig()
	layout, _ := LayoutFor(cfg.Width)
	n := layout.NumUsed()
	snr := SNRFromDb(25)

	for _, tagAmp := range []float64{0.02, 0.5} {
		hEst := make([]complex128, n)
		hTrue := make([]complex128, n)
		for k := 0; k < n; k++ {
			delta := complex(tagAmp, 0) * rotate(1, 0.45*float64(k))
			hEst[k] = 1 + delta  // estimated with tag at 0°
			hTrue[k] = 1 - delta // data symbols with tag at 180°
		}
		d, err := DistortionAfterCPE(hTrue, hEst)
		if err != nil {
			t.Fatal(err)
		}
		sinr := EffectiveSINR(snr, d)
		pSucc, err := SubframeSuccessProb(cfg.MCS, sinr, 30*8)
		if err != nil {
			t.Fatal(err)
		}

		// Bit-true: one 30-byte PSDU entirely under the flipped channel.
		psdu := stats.RandomBytes(stats.NewRNG(60), 30)
		wf, _ := Transmit(psdu, cfg)
		h := func(sym, sc int) complex128 {
			if sym < cfg.LTFRepeats {
				return hEst[sc]
			}
			return hTrue[sc]
		}
		rx := ApplyChannel(wf, h, 1/snr, stats.NewRNG(61))
		csi, _ := EstimateCSI(rx.LTF)
		res, err := Receive(rx, csi, false)
		if err != nil {
			t.Fatal(err)
		}
		decoded := bytesEqual(res.PSDU, psdu)

		if tagAmp == 0.5 {
			if pSucc > 0.05 {
				t.Fatalf("amp %.2f: model predicts success %v, want near 0", tagAmp, pSucc)
			}
			if decoded {
				t.Fatalf("amp %.2f: bit-true chain decoded a strongly corrupted frame", tagAmp)
			}
		} else {
			if pSucc < 0.95 {
				t.Fatalf("amp %.2f: model predicts success %v, want near 1", tagAmp, pSucc)
			}
			if !decoded {
				t.Fatalf("amp %.2f: bit-true chain failed a barely-perturbed frame", tagAmp)
			}
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
