package phy

import (
	"fmt"
	"math"
	"math/cmplx"

	"witag/internal/dot11"
)

// LinkModel maps per-subframe channel conditions to decode probabilities
// analytically, the way ns-3's NIST error model does: exact Gray-QAM BER
// over AWGN, a union bound over the K=7 convolutional code's distance
// spectrum, and an (1-BER)^bits packet success approximation. A
// calibration test (calibration_test.go) pins this model against the
// bit-true chain.

// QFunc is the Gaussian tail function Q(x) = P(N(0,1) > x).
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// UncodedBER returns the raw (pre-FEC) bit error rate of a Gray-coded
// constellation over AWGN at the given per-symbol SNR (Es/N0, linear).
func UncodedBER(mod dot11.Modulation, snr float64) (float64, error) {
	if snr < 0 {
		return 0, fmt.Errorf("phy: negative SNR %v", snr)
	}
	switch mod {
	case dot11.BPSK:
		return QFunc(math.Sqrt(2 * snr)), nil
	case dot11.QPSK:
		return QFunc(math.Sqrt(snr)), nil
	case dot11.QAM16:
		return 3.0 / 4.0 * QFunc(math.Sqrt(snr/5)), nil
	case dot11.QAM64:
		return 7.0 / 12.0 * QFunc(math.Sqrt(snr/21)), nil
	case dot11.QAM256:
		return 15.0 / 32.0 * QFunc(math.Sqrt(snr/85)), nil
	default:
		return 0, fmt.Errorf("phy: unknown modulation %v", mod)
	}
}

// distanceSpectrum holds the bit-error weights β_d of the first terms of
// the (133,171) code's distance spectrum at each puncturing rate
// (Frenger et al., as used by ns-3's NIST model).
type spectrumTerm struct {
	d    int
	beta float64
}

var (
	spectrum12 = []spectrumTerm{{10, 36}, {12, 211}, {14, 1404}, {16, 11633}}
	spectrum23 = []spectrumTerm{{6, 3}, {7, 70}, {8, 285}, {9, 1276}, {10, 6160}}
	spectrum34 = []spectrumTerm{{5, 42}, {6, 201}, {7, 1492}, {8, 10469}}
	spectrum56 = []spectrumTerm{{4, 92}, {5, 528}, {6, 8694}, {7, 79453}}
)

// distanceSpectrum returns the shared, read-only table for rate.
func distanceSpectrum(rate dot11.CodeRate) ([]spectrumTerm, error) {
	switch rate {
	case dot11.Rate12:
		return spectrum12, nil
	case dot11.Rate23:
		return spectrum23, nil
	case dot11.Rate34:
		return spectrum34, nil
	case dot11.Rate56:
		return spectrum56, nil
	default:
		return nil, fmt.Errorf("phy: unsupported code rate %v", rate)
	}
}

// logBinom[n][k] is ln C(n, k), for every n up to the largest distance in
// the spectra, computed once. Each entry must stay exactly
// lgamma(n+1) − lgamma(k+1) − lgamma(n−k+1): that keeps the union bound
// bit-equal to evaluating the coefficient per term, which
// TestDecodeTableMatchesLgamma checks.
var logBinom = func() [][]float64 {
	maxD := 0
	for _, spec := range [][]spectrumTerm{spectrum12, spectrum23, spectrum34, spectrum56} {
		for _, t := range spec {
			maxD = max(maxD, t.d)
		}
	}
	tab := make([][]float64, maxD+1)
	for n := range tab {
		tab[n] = make([]float64, n+1)
		for k := range tab[n] {
			tab[n][k] = lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1)
		}
	}
	return tab
}()

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}

// pairwiseErrorProb returns P2(d), the probability that a hard-decision
// Viterbi decoder picks a path at Hamming distance d, given raw channel
// bit error probability p. For 0 < p < 0.5, lp and lq must be ln p and
// ln(1−p); outside that range they are not read. d must be a distance in
// the spectra.
func pairwiseErrorProb(d int, p, lp, lq float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 0.5 {
		return 0.5
	}
	// Each binomial term is evaluated in logs to dodge overflow for large
	// d.
	pmf := func(k int) float64 {
		return math.Exp(logBinom[d][k] + float64(k)*lp + float64(d-k)*lq)
	}
	sum := 0.0
	k := (d + 1) / 2
	if d%2 == 0 {
		sum += 0.5 * pmf(d/2)
		k = d/2 + 1
	}
	for ; k <= d; k++ {
		sum += pmf(k)
	}
	return sum
}

// unionBound returns the truncated union bound Σ β_d·P2(d) over spec at
// raw bit error probability p, before CodedBER's clamp. ln p and ln(1−p)
// are the same for every term, so they are taken once per bound instead
// of once per term (DESIGN.md §17, stage 5). They are taken under
// pairwiseErrorProb's own range test, so a NaN p still reaches the terms
// as NaN logs.
func unionBound(spec []spectrumTerm, p float64) float64 {
	var lp, lq float64
	if !(p <= 0 || p >= 0.5) {
		lp, lq = math.Log(p), math.Log1p(-p)
	}
	ber := 0.0
	for _, t := range spec {
		ber += t.beta * pairwiseErrorProb(t.d, p, lp, lq)
	}
	return ber
}

// CodedBER returns the post-Viterbi BER for an MCS at the given
// per-subcarrier SNR via the truncated union bound.
func CodedBER(mcs dot11.MCS, snr float64) (float64, error) {
	p, err := UncodedBER(mcs.Modulation, snr)
	if err != nil {
		return 0, err
	}
	spec, err := distanceSpectrum(mcs.CodeRate)
	if err != nil {
		return 0, err
	}
	ber := unionBound(spec, p)
	// The union bound can exceed 1 at low SNR; the raw channel can't do
	// worse than p against a rate<1 code in practice, so clamp.
	if ber > 0.5 {
		ber = 0.5
	}
	return ber, nil
}

// SubframeSuccessProb returns the probability that an MPDU of mpduBits
// bits decodes (valid FCS) when its symbols see an effective SINR of
// sinr (linear). Success requires every bit correct:
// (1 − BER_coded)^bits.
func SubframeSuccessProb(mcs dot11.MCS, sinr float64, mpduBits int) (float64, error) {
	if mpduBits <= 0 {
		return 0, fmt.Errorf("phy: non-positive MPDU length %d bits", mpduBits)
	}
	ber, err := CodedBER(mcs, sinr)
	if err != nil {
		return 0, err
	}
	return SuccessProbAtBER(ber, mpduBits), nil
}

// SuccessProbAtBER is SubframeSuccessProb's last step, (1 − ber)^bits, for
// a coded BER the caller already evaluated. A round sees only two SINRs,
// so its decode model evaluates CodedBER twice and calls this once per
// subframe segment — bit-equal to SubframeSuccessProb at the same SINR.
func SuccessProbAtBER(ber float64, bits int) float64 {
	return math.Pow(1-ber, float64(bits))
}

// DistortionAfterCPE computes the residual per-subcarrier distortion power
// when the receiver equalises with hEst while the true channel is hTrue,
// after pilot-based common-phase-error removal. This is the quantity a
// WiTAG tag maximises: its reflection makes hTrue diverge from the
// preamble estimate in a frequency-selective way that CPE tracking cannot
// absorb.
//
// Distortion D = E_k |g_k·e^{-jφ*} − 1|², where g_k = hTrue_k/hEst_k and
// φ* is the phase of E_k[g_k] (the CPE the pilots remove).
func DistortionAfterCPE(hTrue, hEst []complex128) (float64, error) {
	return DistortionAfterCPEBuf(hTrue, hEst, nil)
}

// DistortionAfterCPEBuf is DistortionAfterCPE computing the per-subcarrier
// ratios in g when it has room for them, so a caller evaluating one
// distortion per round can reuse one buffer.
func DistortionAfterCPEBuf(hTrue, hEst, g []complex128) (float64, error) {
	if len(hTrue) != len(hEst) || len(hTrue) == 0 {
		return 0, fmt.Errorf("phy: distortion needs equal non-empty channels (%d vs %d)", len(hTrue), len(hEst))
	}
	if cap(g) < len(hTrue) {
		g = make([]complex128, len(hTrue))
	}
	g = g[:len(hTrue)]
	var mean complex128
	for k := range hTrue {
		den := hEst[k]
		if den == 0 {
			den = 1e-12
		}
		g[k] = hTrue[k] / den
		mean += g[k]
	}
	mean /= complex(float64(len(g)), 0)
	cpe := complex128(1)
	if mean != 0 {
		cpe = cmplx.Exp(complex(0, -cmplx.Phase(mean)))
	}
	var d float64
	for _, gk := range g {
		e := gk*cpe - 1
		d += real(e)*real(e) + imag(e)*imag(e)
	}
	return d / float64(len(g)), nil
}

// EffectiveSINR combines thermal SNR with equalisation distortion:
// SINR = 1 / (D + 1/SNR). With no distortion it reduces to the SNR; with
// strong distortion it saturates at 1/D regardless of signal power —
// which is why a WiTAG corruption works at any transmit power.
func EffectiveSINR(snr, distortion float64) float64 {
	if snr <= 0 {
		return 0
	}
	return 1 / (distortion + 1/snr)
}

// SNRFromDb converts dB to linear.
func SNRFromDb(db float64) float64 { return math.Pow(10, db/10) }

// SNRToDb converts linear to dB.
func SNRToDb(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// RobustMCS returns the highest-index single-stream HT MCS whose subframe
// success probability at the given SINR and MPDU size exceeds target —
// the paper's §4.1 "highest PHY rate with near-zero error" rule.
func RobustMCS(sinr float64, mpduBits int, target float64) (dot11.MCS, error) {
	best := -1
	for idx := 0; idx <= 7; idx++ {
		mcs, err := dot11.HTMCS(idx)
		if err != nil {
			return dot11.MCS{}, err
		}
		ps, err := SubframeSuccessProb(mcs, sinr, mpduBits)
		if err != nil {
			return dot11.MCS{}, err
		}
		if ps >= target {
			best = idx
		}
	}
	if best < 0 {
		return dot11.MCS{}, fmt.Errorf("phy: no MCS meets success target %v at SINR %.2f dB", target, SNRToDb(sinr))
	}
	return dot11.HTMCS(best)
}
