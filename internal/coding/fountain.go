package coding

import (
	"fmt"
	"math"
	"strconv"

	"witag/internal/stats"
)

// LT-style rateless/fountain code, FlexScatter-flavoured. The payload is
// cut into K equal source blocks; every encoded symbol is the XOR of a
// pseudo-random subset of blocks whose degree is drawn from the robust
// soliton distribution. Encoder and decoder derive a symbol's block set
// purely from (seed, symbol ID), so the channel only has to carry the
// 16-bit ID with each symbol — a lost symbol costs nothing but the next
// ID, never a NACK round-trip.

// Robust soliton parameters shared by every transfer. C trades overhead
// for decode-failure probability; Delta is the target failure bound.
const (
	solitonC     = 0.1
	solitonDelta = 0.05
)

// RobustSoliton returns the robust soliton degree distribution for k
// source blocks: p[d] is the probability of degree d (p[0] unused). It
// is the ideal soliton rho(d) plus Luby's tau(d) spike at k/R, then
// normalised — the closed forms the unit tests pin down.
func RobustSoliton(k int, c, delta float64) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("coding: soliton needs ≥1 block, got %d", k)
	}
	if c <= 0 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("coding: soliton parameters c=%v delta=%v outside c>0, 0<delta<1", c, delta)
	}
	p := make([]float64, k+1)
	// Ideal soliton: rho(1) = 1/k, rho(d) = 1/(d(d-1)).
	p[1] = 1 / float64(k)
	for d := 2; d <= k; d++ {
		p[d] = 1 / (float64(d) * float64(d-1))
	}
	// Robust spike: R = c·ln(k/delta)·sqrt(k), tau(d) = R/(dk) below the
	// spike, R·ln(R/delta)/k at it, 0 above.
	r := c * math.Log(float64(k)/delta) * math.Sqrt(float64(k))
	if spike := int(math.Round(float64(k) / r)); spike >= 1 && spike <= k {
		for d := 1; d < spike; d++ {
			p[d] += r / (float64(d) * float64(k))
		}
		p[spike] += r * math.Log(r/delta) / float64(k)
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	for d := range p {
		p[d] /= sum
	}
	return p, nil
}

// Fountain is one transfer's encoder state: the block geometry plus the
// degree CDF. It is deterministic — SymbolBlocks(id) is a pure function
// of (seed, id) — so the decoding side rebuilds block sets locally. Not
// safe for concurrent use: SymbolBlocks shuffles in a scratch the
// Fountain owns.
type Fountain struct {
	K          int // source blocks
	BlockBytes int
	PayloadLen int // original payload length (last block zero-padded)

	seed int64
	cdf  []float64
	idx  []int // SymbolBlocks' shuffle scratch
}

// NewFountain sets up the code for a payload of payloadLen bytes cut
// into blockBytes-sized source blocks.
func NewFountain(payloadLen, blockBytes int, seed int64) (*Fountain, error) {
	if payloadLen < 1 || blockBytes < 1 {
		return nil, fmt.Errorf("coding: fountain payload %dB / block %dB must be ≥1", payloadLen, blockBytes)
	}
	k := (payloadLen + blockBytes - 1) / blockBytes
	dist, err := RobustSoliton(k, solitonC, solitonDelta)
	if err != nil {
		return nil, err
	}
	cdf := make([]float64, len(dist))
	cum := 0.0
	for d, p := range dist {
		cum += p
		cdf[d] = cum
	}
	return &Fountain{K: k, BlockBytes: blockBytes, PayloadLen: payloadLen, seed: seed, cdf: cdf}, nil
}

// SymbolBlocks returns the source-block indices XORed into symbol id,
// derived deterministically from the transfer seed and the id alone.
func (f *Fountain) SymbolBlocks(id int) []int {
	rng := stats.NewRNG(stats.SubSeed(f.seed, "lt", "sym="+strconv.Itoa(id)))
	// Inverse-CDF degree draw.
	u := rng.Float64()
	deg := 1
	for d := 1; d < len(f.cdf); d++ {
		if u <= f.cdf[d] {
			deg = d
			break
		}
		deg = d
	}
	if deg > f.K {
		deg = f.K
	}
	// Partial Fisher–Yates over [0,K) for a uniform distinct subset.
	if len(f.idx) != f.K {
		f.idx = make([]int, f.K)
	}
	idx := f.idx
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < deg; i++ {
		j := i + rng.Intn(f.K-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return append([]int(nil), idx[:deg]...)
}

// block returns source block i of payload, zero-padded to BlockBytes.
func (f *Fountain) block(payload []byte, i int) []byte {
	b := make([]byte, f.BlockBytes)
	start := i * f.BlockBytes
	if start < len(payload) {
		copy(b, payload[start:])
	}
	return b
}

// Symbol encodes symbol id: the XOR of its source blocks.
func (f *Fountain) Symbol(payload []byte, id int) ([]byte, error) {
	if len(payload) != f.PayloadLen {
		return nil, fmt.Errorf("coding: payload is %dB, fountain built for %dB", len(payload), f.PayloadLen)
	}
	out := make([]byte, f.BlockBytes)
	for _, bi := range f.SymbolBlocks(id) {
		start := bi * f.BlockBytes
		for j := 0; j < f.BlockBytes && start+j < len(payload); j++ {
			out[j] ^= payload[start+j]
		}
	}
	return out, nil
}

// FountainDecoder runs the deterministic peeling (belief-propagation)
// decoder: every received symbol is a parity check over its block set;
// degree-one symbols release their block, released blocks are subtracted
// from every symbol covering them, repeat. When peeling stalls with
// enough equations outstanding, a dense GF(2) elimination finishes the
// job (see gaussian), which keeps the reception overhead near K+1 even
// for the small K of short transfers. Add never panics on
// duplicate, truncated or corrupted symbols — wrong-length data is
// rejected and unknown IDs are just new equations.
type FountainDecoder struct {
	f       *Fountain
	blocks  [][]byte // decoded source blocks (nil = unknown)
	pending []pendingSymbol
	seen    map[int]bool
	decoded int
	// Attempts counts peeling passes, for the decode-attempt metrics.
	Attempts int
}

type pendingSymbol struct {
	data   []byte
	blocks map[int]bool
}

// NewFountainDecoder builds the decoder for f's geometry.
func NewFountainDecoder(f *Fountain) *FountainDecoder {
	return &FountainDecoder{f: f, blocks: make([][]byte, f.K), seen: map[int]bool{}}
}

// Add feeds one received symbol and peels as far as possible. It reports
// whether the symbol was fresh (not a duplicate and usable).
func (d *FountainDecoder) Add(id int, data []byte) (bool, error) {
	if id < 0 {
		return false, fmt.Errorf("coding: negative symbol id %d", id)
	}
	if len(data) != d.f.BlockBytes {
		return false, fmt.Errorf("coding: symbol %d is %dB, blocks are %dB", id, len(data), d.f.BlockBytes)
	}
	if d.seen[id] {
		return false, nil
	}
	d.seen[id] = true
	blocks := map[int]bool{}
	buf := append([]byte(nil), data...)
	for _, bi := range d.f.SymbolBlocks(id) {
		if kb := d.blocks[bi]; kb != nil {
			xorInto(buf, kb) // already-released block: subtract immediately
		} else {
			blocks[bi] = true
		}
	}
	d.pending = append(d.pending, pendingSymbol{data: buf, blocks: blocks})
	d.peel()
	if !d.Done() {
		d.gaussian()
	}
	return true, nil
}

// gaussian is the decoder's fallback when peeling stalls: once the
// outstanding equations could determine every unknown block, solve the
// dense GF(2) system directly (the inactivation idea from Raptor codes —
// peeling resolves the easy majority, elimination mops up). On success
// every block is recovered and the pending set is cleared; on rank
// deficiency the decoder state is left untouched and the stream simply
// continues.
func (d *FountainDecoder) gaussian() {
	unknowns := make([]int, 0, d.f.K-d.decoded)
	pos := map[int]int{}
	for bi := 0; bi < d.f.K; bi++ {
		if d.blocks[bi] == nil {
			pos[bi] = len(unknowns)
			unknowns = append(unknowns, bi)
		}
	}
	nu := len(unknowns)
	if nu == 0 || len(d.pending) < nu {
		return
	}
	d.Attempts++
	words := (nu + 63) / 64
	type row struct {
		mask []uint64
		data []byte
	}
	rows := make([]row, 0, len(d.pending))
	for _, ps := range d.pending {
		r := row{mask: make([]uint64, words), data: append([]byte(nil), ps.data...)}
		for bi := range ps.blocks {
			j := pos[bi]
			r.mask[j/64] |= 1 << (j % 64)
		}
		rows = append(rows, r)
	}
	// Forward elimination with column pivoting.
	solvedRows := make([]row, 0, nu)
	for col := 0; col < nu; col++ {
		pivot := -1
		for i := len(solvedRows); i < len(rows); i++ {
			if rows[i].mask[col/64]&(1<<(col%64)) != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			return // rank-deficient: wait for more symbols
		}
		at := len(solvedRows)
		rows[at], rows[pivot] = rows[pivot], rows[at]
		for i := range rows {
			if i == at {
				continue
			}
			if rows[i].mask[col/64]&(1<<(col%64)) != 0 {
				for w := range rows[i].mask {
					rows[i].mask[w] ^= rows[at].mask[w]
				}
				xorInto(rows[i].data, rows[at].data)
			}
		}
		solvedRows = append(solvedRows, rows[at])
	}
	// Full rank: after Gauss–Jordan above, solvedRows[j] holds exactly
	// unknown j.
	for j, bi := range unknowns {
		d.blocks[bi] = solvedRows[j].data
		d.decoded++
	}
	d.pending = d.pending[:0]
}

// peel releases every degree-one pending symbol until a fixpoint.
func (d *FountainDecoder) peel() {
	d.Attempts++
	for progress := true; progress; {
		progress = false
		for i := range d.pending {
			ps := &d.pending[i]
			if len(ps.blocks) != 1 {
				continue
			}
			var bi int
			for b := range ps.blocks {
				bi = b
			}
			delete(ps.blocks, bi)
			if d.blocks[bi] != nil {
				continue // redundant release
			}
			d.blocks[bi] = append([]byte(nil), ps.data...)
			d.decoded++
			for j := range d.pending {
				other := &d.pending[j]
				if other.blocks[bi] {
					delete(other.blocks, bi)
					xorInto(other.data, d.blocks[bi])
				}
			}
			progress = true
		}
		if progress {
			// Compact resolved symbols so the scan stays linear in the
			// outstanding set.
			kept := d.pending[:0]
			for _, ps := range d.pending {
				if len(ps.blocks) > 0 {
					kept = append(kept, ps)
				}
			}
			d.pending = kept
		}
	}
}

// Done reports whether every source block is recovered.
func (d *FountainDecoder) Done() bool { return d.decoded == d.f.K }

// Payload returns the reassembled payload once Done.
func (d *FountainDecoder) Payload() ([]byte, error) {
	if !d.Done() {
		return nil, fmt.Errorf("coding: fountain decode incomplete (%d/%d blocks)", d.decoded, d.f.K)
	}
	out := make([]byte, 0, d.f.K*d.f.BlockBytes)
	for _, b := range d.blocks {
		out = append(out, b...)
	}
	return out[:d.f.PayloadLen], nil
}

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}
