package phy

import (
	"testing"

	"witag/internal/dot11"
)

// decodeRegimes are SINRs (linear) covering the decode model's three
// regimes: the early exit where the raw BER underflows to zero, the error
// cliff where every union-bound term counts, and saturation where the
// coded BER clamps at one half.
var decodeRegimes = []struct {
	name  string
	sinrs []float64
}{
	{"early exit", []float64{1e6, 1e9}},
	{"cliff", []float64{SNRFromDb(2), SNRFromDb(6.5), SNRFromDb(11), SNRFromDb(17.3), SNRFromDb(24), SNRFromDb(29)}},
	{"saturated", []float64{0, 1e-3, SNRFromDb(-8)}},
}

// TestSuccessProbAtBERMatchesSubframeSuccessProb proves the hoisted decode
// model — one CodedBER per SINR, then SuccessProbAtBER per segment — is
// bit-equal to SubframeSuccessProb for every HT MCS in every regime, and
// that each regime's SINRs really land in it.
func TestSuccessProbAtBERMatchesSubframeSuccessProb(t *testing.T) {
	for _, reg := range decodeRegimes {
		t.Run(reg.name, func(t *testing.T) {
			for idx := 0; idx <= 31; idx++ {
				mcs, err := dot11.HTMCS(idx)
				if err != nil {
					t.Fatal(err)
				}
				onCliff := false
				for _, sinr := range reg.sinrs {
					ber, err := CodedBER(mcs, sinr)
					if err != nil {
						t.Fatal(err)
					}
					onCliff = onCliff || (ber > 0 && ber < 0.5)
					switch reg.name {
					case "early exit":
						if ber != 0 {
							t.Fatalf("MCS %d at SINR %g: coded BER %g, want the early exit's 0", idx, sinr, ber)
						}
					case "saturated":
						if ber != 0.5 {
							t.Fatalf("MCS %d at SINR %g: coded BER %g, want the clamp's 0.5", idx, sinr, ber)
						}
					}
					for _, bits := range []int{1, 37, 400, 1000, 12000} {
						want, err := SubframeSuccessProb(mcs, sinr, bits)
						if err != nil {
							t.Fatal(err)
						}
						if got := SuccessProbAtBER(ber, bits); got != want {
							t.Fatalf("MCS %d SINR %g, %d bits: hoisted %v, SubframeSuccessProb %v", idx, sinr, bits, got, want)
						}
					}
				}
				if reg.name == "cliff" && !onCliff {
					t.Fatalf("MCS %d: no cliff SINR lands between the early exit and the clamp", idx)
				}
			}
		})
	}
}

// BenchmarkDecodeModel times one coded-BER evaluation — the unit the
// decode model pays twice per round (core.decode_model_evals) — in each
// regime, for the experiments' QPSK 3/4 query rate.
func BenchmarkDecodeModel(b *testing.B) {
	mcs, err := dot11.HTMCS(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, reg := range decodeRegimes {
		sinr := reg.sinrs[len(reg.sinrs)/2]
		b.Run(reg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ber, err := CodedBER(mcs, sinr)
				if err != nil {
					b.Fatal(err)
				}
				berSink = ber
			}
		})
	}
}

// berSink keeps the benchmarked evaluation from being optimised away.
var berSink float64
