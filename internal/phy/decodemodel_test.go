package phy

import (
	"fmt"
	"math"
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

// oracleBinomPMF is the binomial PMF as the union bound evaluated it before
// the log-coefficient table: three Lgamma calls, ln p and ln(1−p) per term.
func oracleBinomPMF(n, k int, p float64) float64 {
	lg := lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1)
	return math.Exp(lg + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// oraclePairwiseErrorProb is pairwiseErrorProb over oracleBinomPMF.
func oraclePairwiseErrorProb(d int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 0.5 {
		return 0.5
	}
	sum := 0.0
	if d%2 == 0 {
		sum += 0.5 * oracleBinomPMF(d, d/2, p)
		for k := d/2 + 1; k <= d; k++ {
			sum += oracleBinomPMF(d, k, p)
		}
	} else {
		for k := (d + 1) / 2; k <= d; k++ {
			sum += oracleBinomPMF(d, k, p)
		}
	}
	return sum
}

// oracleCodedBER is CodedBER over oraclePairwiseErrorProb.
func oracleCodedBER(mcs dot11.MCS, snr float64) (float64, error) {
	p, err := UncodedBER(mcs.Modulation, snr)
	if err != nil {
		return 0, err
	}
	spec, err := distanceSpectrum(mcs.CodeRate)
	if err != nil {
		return 0, err
	}
	return min(oracleUnionBound(spec, p), 0.5), nil
}

// oracleUnionBound is unionBound over oraclePairwiseErrorProb, which takes
// ln p and ln(1−p) afresh for every binomial term of every spectrum term.
func oracleUnionBound(spec []spectrumTerm, p float64) float64 {
	ber := 0.0
	for _, t := range spec {
		ber += t.beta * oraclePairwiseErrorProb(t.d, p)
	}
	return ber
}

// sameFloat reports whether a and b are the same float64, bit for bit.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestDecodeTableMatchesLgamma proves the log-coefficient table and the
// once-per-bound logs leave the union bound bit-for-bit unchanged:
// pairwiseErrorProb against the per-term Lgamma oracle for every spectrum
// term of every code rate, with p swept log-uniformly over [1e-300, 0.5);
// unionBound against the oracle at p = 0, just above it, inside (0, 0.5),
// on both sides of 0.5 and at NaN; and CodedBER against the oracle for
// every HT MCS from −10 to 40 dB SNR and at the SNRs where p reaches 0.5
// and 0.
func TestDecodeTableMatchesLgamma(t *testing.T) {
	rates := []dot11.CodeRate{dot11.Rate12, dot11.Rate23, dot11.Rate34, dot11.Rate56}
	const steps = 2000
	lo, hi := math.Log(1e-300), math.Log(0.5)
	for _, rate := range rates {
		spec, err := distanceSpectrum(rate)
		if err != nil {
			t.Fatal(err)
		}
		for _, term := range spec {
			for i := 0; i < steps; i++ {
				p := math.Exp(lo + (hi-lo)*float64(i)/steps)
				if got, want := pairwiseErrorProb(term.d, p, math.Log(p), math.Log1p(-p)), oraclePairwiseErrorProb(term.d, p); !sameFloat(got, want) {
					t.Fatalf("rate %v, d=%d, p=%g: table %v, Lgamma oracle %v", rate, term.d, p, got, want)
				}
			}
		}
		for _, p := range []float64{0, math.SmallestNonzeroFloat64, 1e-300, 1e-9, 0.01, 0.3,
			math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), 0.75, 1, math.NaN()} {
			if got, want := unionBound(spec, p), oracleUnionBound(spec, p); !sameFloat(got, want) {
				t.Fatalf("rate %v, p=%g: hoisted bound %v, Lgamma oracle %v", rate, p, got, want)
			}
		}
	}
	sinrs := []float64{0, 1e-300, 1e6, 1e9, math.Inf(1)}
	for db := -10.0; db <= 40; db += 0.025 {
		sinrs = append(sinrs, SNRFromDb(db))
	}
	for idx := 0; idx <= 31; idx++ {
		mcs, err := dot11.HTMCS(idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, snr := range sinrs {
			got, err := CodedBER(mcs, snr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleCodedBER(mcs, snr)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloat(got, want) {
				t.Fatalf("MCS %d at %.2f dB: CodedBER %v, Lgamma oracle %v", idx, SNRToDb(snr), got, want)
			}
		}
	}
}

// BenchmarkDecodeModel times one coded-BER evaluation — the unit the
// decode model pays twice per round (core.decode_model_evals) — in each
// regime, for the experiments' QPSK 3/4 query rate and for Figure 6's
// MCS 0 (BPSK 1/2), whose rate-1/2 bound has the spectra's largest
// distances.
func BenchmarkDecodeModel(b *testing.B) {
	for _, idx := range []int{2, 0} {
		mcs, err := dot11.HTMCS(idx)
		if err != nil {
			b.Fatal(err)
		}
		for _, reg := range decodeRegimes {
			sinr := reg.sinrs[len(reg.sinrs)/2]
			b.Run(fmt.Sprintf("MCS%d/%s", idx, reg.name), func(b *testing.B) {
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
}

// berSink keeps the benchmarked evaluation from being optimised away.
var berSink float64
