package phy

import (
	"fmt"
	"math"

	"witag/internal/dot11"
)

// The 802.11 convolutional code: constraint length K=7, rate 1/2, generator
// polynomials g0 = 133₈, g1 = 171₈ (IEEE 802.11-2012 §18.3.5.6). Higher
// rates are obtained by puncturing. Decoding is Viterbi over the 64-state
// trellis, in hard- or soft-decision form.

const (
	convK      = 7
	convStates = 1 << (convK - 1) // 64
	genG0      = 0o133
	genG1      = 0o171
)

// parity returns the parity of x.
func parity(x uint32) byte {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// convOutputs[state][input] caches the two coded bits emitted for a
// transition.
var convOutputs [convStates][2][2]byte

func init() {
	for s := 0; s < convStates; s++ {
		for in := 0; in < 2; in++ {
			reg := uint32(in)<<(convK-1) | uint32(s)
			convOutputs[s][in][0] = parity(reg & genG0)
			convOutputs[s][in][1] = parity(reg & genG1)
		}
	}
}

// ConvEncode encodes data bits at rate 1/2. The caller is responsible for
// appending the six zero tail bits that flush the encoder (the OFDM framer
// does this).
func ConvEncode(bits []byte) []byte {
	out := make([]byte, 0, len(bits)*2)
	state := 0
	for _, b := range bits {
		in := int(b & 1)
		o := convOutputs[state][in]
		out = append(out, o[0], o[1])
		state = in<<(convK-2) | state>>1
	}
	return out
}

// punctureMap returns the keep-pattern for a code rate: a boolean per
// mother-code bit over one puncturing period.
func punctureMap(rate dot11.CodeRate) ([]bool, error) {
	switch rate {
	case dot11.Rate12:
		return []bool{true, true}, nil
	case dot11.Rate23:
		return []bool{true, true, true, false}, nil
	case dot11.Rate34:
		return []bool{true, true, true, false, false, true}, nil
	case dot11.Rate56:
		return []bool{true, true, true, false, false, true, true, false, false, true}, nil
	default:
		return nil, fmt.Errorf("phy: unsupported code rate %v", rate)
	}
}

// Puncture drops mother-code bits according to the rate's pattern.
func Puncture(coded []byte, rate dot11.CodeRate) ([]byte, error) {
	pat, err := punctureMap(rate)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(coded)*rate.Den/(2*rate.Num))
	for i, b := range coded {
		if pat[i%len(pat)] {
			out = append(out, b)
		}
	}
	return out, nil
}

// erasure marks a depunctured position carrying no channel information.
const erasure byte = 2

// Depuncture re-inserts erasure marks where Puncture dropped bits, so the
// Viterbi decoder can skip their branch metrics.
func Depuncture(punctured []byte, rate dot11.CodeRate, motherLen int) ([]byte, error) {
	pat, err := punctureMap(rate)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, motherLen)
	j := 0
	for i := 0; i < motherLen; i++ {
		if pat[i%len(pat)] {
			if j >= len(punctured) {
				return nil, fmt.Errorf("phy: punctured stream too short: need >%d bits", j)
			}
			out = append(out, punctured[j])
			j++
		} else {
			out = append(out, erasure)
		}
	}
	if j != len(punctured) {
		return nil, fmt.Errorf("phy: punctured stream has %d leftover bits", len(punctured)-j)
	}
	return out, nil
}

// ViterbiDecode performs hard-decision maximum-likelihood decoding of a
// rate-1/2 mother-code stream (with optional erasure marks from
// Depuncture). It returns the decoded bits, including whatever tail the
// encoder appended. Each hard bit becomes a unit LLR (0 → +1, 1 → −1,
// erasure → 0) for the one soft trellis: the branch metrics are then the
// Hamming distances, small integers that float64 holds exactly, so path
// metrics and tie-breaks are those of a dedicated integer decoder.
func ViterbiDecode(coded []byte) ([]byte, error) {
	if len(coded)%2 != 0 {
		return nil, fmt.Errorf("phy: coded length %d is odd", len(coded))
	}
	llr := make([]float64, len(coded))
	for i, c := range coded {
		switch {
		case c == erasure:
		case c&1 == 0:
			llr[i] = 1
		default:
			llr[i] = -1
		}
	}
	return ViterbiDecodeSoft(llr)
}

// ViterbiDecodeSoft decodes using per-bit soft metrics: llr[i] > 0 favours
// bit 0, llr[i] < 0 favours bit 1, magnitude is confidence. Erasures are
// zeros. Soft decoding buys ≈2 dB over hard decisions — the link model's
// coding-gain constant is calibrated against this path.
func ViterbiDecodeSoft(llr []float64) ([]byte, error) {
	if len(llr)%2 != 0 {
		return nil, fmt.Errorf("phy: soft stream length %d is odd", len(llr))
	}
	n := len(llr) / 2
	if n == 0 {
		return nil, nil
	}
	inf := math.Inf(1)
	metric := make([]float64, convStates)
	next := make([]float64, convStates)
	for s := 1; s < convStates; s++ {
		metric[s] = inf
	}
	survivors := make([][convStates]uint8, n)
	for t := 0; t < n; t++ {
		l0, l1 := llr[2*t], llr[2*t+1]
		for s := range next {
			next[s] = inf
		}
		for s := 0; s < convStates; s++ {
			if math.IsInf(metric[s], 1) {
				continue
			}
			for in := 0; in < 2; in++ {
				o := convOutputs[s][in]
				bm := 0.0
				// Cost of emitting bit b against LLR l: penalise when the
				// sign disagrees, in proportion to confidence.
				if o[0] == 0 {
					bm += math.Max(0, -l0)
				} else {
					bm += math.Max(0, l0)
				}
				if o[1] == 0 {
					bm += math.Max(0, -l1)
				} else {
					bm += math.Max(0, l1)
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
	return out, nil
}
