package phy

import (
	"fmt"
	"math/cmplx"

	"witag/internal/bitio"
	"witag/internal/obs"
)

// CSI is the receiver's per-used-subcarrier channel estimate, measured once
// from the preamble's training symbols. This single estimation per PPDU is
// the property WiTAG exploits: it stays in force for every subsequent data
// symbol of the aggregate.
type CSI struct {
	Gains []complex128
}

// EstimateCSI least-squares-estimates the channel from received training
// symbols, averaging across repetitions to suppress noise.
func EstimateCSI(ltf [][]complex128) (*CSI, error) {
	if len(ltf) == 0 {
		return nil, fmt.Errorf("phy: no training symbols")
	}
	n := len(ltf[0])
	gains := make([]complex128, n)
	for _, sym := range ltf {
		if len(sym) != n {
			return nil, fmt.Errorf("phy: ragged training symbols")
		}
		for k, v := range sym {
			gains[k] += v / ltfSequence(k)
		}
	}
	for k := range gains {
		gains[k] /= complex(float64(len(ltf)), 0)
	}
	return &CSI{Gains: gains}, nil
}

// ReceiveResult carries the decoded PSDU plus receiver diagnostics.
type ReceiveResult struct {
	PSDU          []byte
	SymbolEVM     []float64 // per-data-symbol EVM against sliced points
	ScramblerSeed byte
	CodedBitErrs  int // pre-Viterbi hard-decision errors (diagnostic)
}

// Receive runs the RX chain: channel equalisation with the preamble CSI,
// pilot-based common-phase-error tracking, demapping, deinterleaving,
// depuncturing, Viterbi decoding, and descrambling. soft selects
// soft-decision Viterbi.
//
// Crucially, equalisation always uses the CSI estimated at the preamble.
// Pilot tracking corrects only a *common* phase rotation per symbol; a
// WiTAG tag's reflection changes each subcarrier differently (its path
// delay imposes a frequency-dependent phase ramp), so pilots cannot undo
// the corruption — matching the behaviour of real receivers described in
// §5 of the paper.
func Receive(rx *Received, csi *CSI, soft bool) (*ReceiveResult, error) {
	cfg := rx.Config
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout := rx.Layout
	ncbps := cfg.MCS.CodedBitsPerSymbol(cfg.Width)
	ndbps := cfg.MCS.DataBitsPerSymbol(cfg.Width)
	nsym := cfg.NumSymbols(rx.PSDULen)
	if len(rx.Symbols) != nsym {
		return nil, fmt.Errorf("phy: received %d data symbols, HT-SIG says %d", len(rx.Symbols), nsym)
	}
	if len(csi.Gains) != layout.NumUsed() {
		return nil, fmt.Errorf("phy: CSI covers %d subcarriers, layout has %d", len(csi.Gains), layout.NumUsed())
	}
	mapper, err := NewMapper(cfg.MCS.Modulation)
	if err != nil {
		return nil, err
	}
	il, err := NewInterleaver(ncbps, cfg.MCS.Modulation.BitsPerSymbol(), interleaverColumns(cfg.Width))
	if err != nil {
		return nil, err
	}

	res := &ReceiveResult{}
	spans := rx.Spans
	var hardStream []byte
	var softStream []float64
	sp := spans.Start()
	for s, sym := range rx.Symbols {
		eq := equaliseSymbol(sym, csi.Gains, layout.PilotIdx, pilotPolarity(s))
		// Demap data subcarriers.
		blockHard := make([]byte, 0, ncbps)
		blockSoft := make([]float64, 0, ncbps)
		recPts := make([]complex128, 0, layout.NumData)
		refPts := make([]complex128, 0, layout.NumData)
		for d := 0; d < layout.NumData; d++ {
			pt := eq[layout.dataIdx[d]]
			hb := mapper.HardDemap(pt)
			blockHard = append(blockHard, hb...)
			if soft {
				blockSoft = append(blockSoft, mapper.SoftDemap(pt, rx.NoiseVar)...)
			}
			sliced, err := mapper.Map(hb)
			if err != nil {
				return nil, err
			}
			recPts = append(recPts, pt)
			refPts = append(refPts, sliced)
		}
		evm, err := EVM(recPts, refPts)
		if err != nil {
			return nil, err
		}
		res.SymbolEVM = append(res.SymbolEVM, evm)
		sp = spans.Lap(obs.PhaseEqualise, sp)

		deHard, err := il.Deinterleave(blockHard)
		if err != nil {
			return nil, err
		}
		hardStream = append(hardStream, deHard...)
		if soft {
			deSoft, err := il.DeinterleaveSoft(blockSoft)
			if err != nil {
				return nil, err
			}
			softStream = append(softStream, deSoft...)
		}
		sp = spans.Lap(obs.PhaseDeinterleave, sp)
	}

	motherLen := 2 * nsym * ndbps
	var decoded []byte
	if soft {
		// Depuncture soft metrics: zeros at punctured positions.
		pat, err := punctureMap(cfg.MCS.CodeRate)
		if err != nil {
			return nil, err
		}
		full := make([]float64, 0, motherLen)
		j := 0
		for i := 0; i < motherLen; i++ {
			if pat[i%len(pat)] {
				if j >= len(softStream) {
					return nil, fmt.Errorf("phy: soft stream too short")
				}
				full = append(full, softStream[j])
				j++
			} else {
				full = append(full, 0)
			}
		}
		decoded, err = ViterbiDecodeSoft(full)
		if err != nil {
			return nil, err
		}
	} else {
		full, err := Depuncture(hardStream, cfg.MCS.CodeRate, motherLen)
		if err != nil {
			return nil, err
		}
		decoded, err = ViterbiDecode(full)
		if err != nil {
			return nil, err
		}
	}
	sp = spans.Lap(obs.PhaseViterbi, sp)

	// Diagnostic: re-encode and count pre-Viterbi disagreements.
	reCoded := ConvEncode(decoded)
	rePunct, err := Puncture(reCoded, cfg.MCS.CodeRate)
	if err != nil {
		return nil, err
	}
	if len(rePunct) == len(hardStream) {
		d, err := bitio.HammingDistance(rePunct, hardStream)
		if err == nil {
			res.CodedBitErrs = d
		}
	}

	// Recover the scrambler seed from the SERVICE field and descramble.
	seed, err := RecoverScramblerSeed(decoded[:7])
	if err != nil {
		return nil, err
	}
	res.ScramblerSeed = seed
	plain, err := Descramble(decoded, seed)
	if err != nil {
		return nil, err
	}
	psduBits := plain[16 : 16+8*rx.PSDULen]
	res.PSDU = bitio.BitsToBytes(psduBits)
	spans.End(obs.PhaseCRC, sp)
	return res, nil
}

// equaliseSymbol divides one received OFDM symbol by the preamble CSI and
// removes the pilot-tracked common phase error, returning the equalised
// subcarriers. pol is the symbol's pilot polarity. This is the receiver's
// per-symbol equalisation stage, split out so the decode-path benchmarks
// can time it in isolation.
func equaliseSymbol(sym, gains []complex128, pilotIdx []int, pol float64) []complex128 {
	eq := make([]complex128, len(sym))
	for k, v := range sym {
		g := gains[k]
		if g == 0 {
			g = 1e-12
		}
		eq[k] = v / g
	}
	var acc complex128
	for _, pidx := range pilotIdx {
		acc += eq[pidx] * complex(pol, 0)
	}
	if acc != 0 {
		cpe := cmplx.Exp(complex(0, -cmplx.Phase(acc)))
		for k := range eq {
			eq[k] *= cpe
		}
	}
	return eq
}
