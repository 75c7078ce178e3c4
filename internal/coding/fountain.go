package coding

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// appendRobustSoliton appends the robust soliton degree distribution for
// k source blocks to dst and returns the extended slice: p[d], d = 0…k,
// is the probability of degree d (p[0] unused). It is the ideal soliton
// rho(d) plus Luby's tau(d) spike at k/R, then normalised — the closed
// forms the unit tests pin down.
func appendRobustSoliton(dst []float64, k int, c, delta float64) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("coding: soliton needs ≥1 block, got %d", k)
	}
	if c <= 0 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("coding: soliton parameters c=%v delta=%v outside c>0, 0<delta<1", c, delta)
	}
	n := len(dst)
	dst = slices.Grow(dst, k+1)[:n+k+1]
	p := dst[n:]
	clear(p)
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
	return dst, nil
}

// Fountain is one transfer's encoder state: the block geometry plus the
// degree CDF. It is deterministic — AppendSymbolBlocks(dst, id) appends a
// pure function of (seed, id) — so the decoding side rebuilds block sets
// locally. Not safe for concurrent use: a block set is drawn by reseeding
// a generator and shuffling in a scratch, both of which the Fountain
// owns.
type Fountain struct {
	K          int // source blocks
	BlockBytes int
	PayloadLen int // original payload length (last block zero-padded)

	seed int64
	cdf  []float64
	rng  *rand.Rand // reseeded for every symbol
	idx  []int      // blocks' shuffle scratch
}

// NewFountain sets up the code for a payload of payloadLen bytes cut
// into blockBytes-sized source blocks.
func NewFountain(payloadLen, blockBytes int, seed int64) (*Fountain, error) {
	f := new(Fountain)
	if err := f.init(payloadLen, blockBytes, seed); err != nil {
		return nil, err
	}
	return f, nil
}

// init sets f up as NewFountain(payloadLen, blockBytes, seed) does, in
// f's storage: its CDF, its generator and its shuffle scratch.
func (f *Fountain) init(payloadLen, blockBytes int, seed int64) error {
	if payloadLen < 1 || blockBytes < 1 {
		return fmt.Errorf("coding: fountain payload %dB / block %dB must be ≥1", payloadLen, blockBytes)
	}
	k := (payloadLen + blockBytes - 1) / blockBytes
	cdf, err := appendRobustSoliton(f.cdf[:0], k, solitonC, solitonDelta)
	if err != nil {
		return err
	}
	cum := 0.0
	for d, p := range cdf {
		cum += p
		cdf[d] = cum
	}
	f.K, f.BlockBytes, f.PayloadLen, f.seed, f.cdf = k, blockBytes, payloadLen, seed, cdf
	return nil
}

// AppendSymbolBlocks appends the source-block indices XORed into symbol
// id, derived deterministically from the transfer seed and the id alone,
// to dst and returns the extended slice.
func (f *Fountain) AppendSymbolBlocks(dst []int, id int) []int {
	return append(dst, f.blocks(id)...)
}

// blocks is AppendSymbolBlocks' set in the Fountain's scratch, valid
// until the next call. Reseeding one generator draws what a generator
// freshly seeded from the same seed would.
func (f *Fountain) blocks(id int) []int {
	// The label is built on the stack: strconv.Itoa allocates from id 100.
	var buf [24]byte
	label := strconv.AppendInt(append(buf[:0], "sym="...), int64(id), 10)
	seed := stats.SubSeed(f.seed, "lt", string(label))
	if f.rng == nil {
		f.rng = stats.NewRNG(seed)
	} else {
		f.rng.Seed(seed)
	}
	rng := f.rng
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
		f.idx = slices.Grow(f.idx[:0], f.K)[:f.K]
	}
	idx := f.idx
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < deg; i++ {
		j := i + rng.Intn(f.K-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:deg]
}

// Symbol encodes symbol id: the XOR of its source blocks, in fresh
// storage.
func (f *Fountain) Symbol(payload []byte, id int) ([]byte, error) {
	return f.AppendSymbol(make([]byte, 0, f.BlockBytes), payload, id)
}

// AppendSymbol appends symbol id to dst and returns the extended slice.
func (f *Fountain) AppendSymbol(dst, payload []byte, id int) ([]byte, error) {
	if len(payload) != f.PayloadLen {
		return nil, fmt.Errorf("coding: payload is %dB, fountain built for %dB", len(payload), f.PayloadLen)
	}
	n := len(dst)
	if cap(dst) < n+f.BlockBytes {
		dst = append(make([]byte, 0, n+f.BlockBytes), dst...)
	}
	dst = dst[:n+f.BlockBytes]
	out := dst[n:]
	clear(out)
	for _, bi := range f.blocks(id) {
		start := bi * f.BlockBytes
		for j := 0; j < f.BlockBytes && start+j < len(payload); j++ {
			out[j] ^= payload[start+j]
		}
	}
	return dst, nil
}

// FountainDecoder runs the deterministic peeling (belief-propagation)
// decoder: every received symbol is a parity check over its block set;
// degree-one symbols release their block, released blocks are subtracted
// from every symbol covering them, repeat. When peeling stalls with
// enough equations outstanding, a dense GF(2) elimination finishes the
// job (see gaussian), which keeps the reception overhead near K+1 even
// for the small K of short transfers. Add never panics on
// duplicate, truncated or corrupted symbols — wrong-length data is
// rejected and unknown IDs are just new equations. An LT transferer
// decodes in storage it keeps from transfer to transfer.
type FountainDecoder struct {
	f       *Fountain
	decoded int
	// Attempts counts peeling passes, for the decode-attempt metrics.
	Attempts int

	*decoderStorage
}

// decoderStorage is what a FountainDecoder decodes in. A symbol's copy
// and its unknown blocks are cut from syms and sets, back to back; when an
// append moves either to a larger array, the copies already cut stay
// valid in the old one, and the next decoder starts on the larger.
type decoderStorage struct {
	blocks  [][]byte // decoded source blocks (nil = unknown)
	pending []pendingSymbol
	seen    map[int]bool
	syms    []byte      // the received symbols' copies
	sets    []int       // the pending symbols' unknown blocks
	solved  []byte      // the blocks the elimination recovers
	elim    elimination // gaussian's scratch, reused by every attempt
}

// elimination is the dense GF(2) system gaussian solves: the unknown
// blocks, each block's column (col[bi], for unknown blocks only), and one
// row per pending symbol, whose masks and data copies live in masks and
// data.
type elimination struct {
	unknowns []int
	col      []int
	rows     []elimRow
	masks    []uint64
	data     []byte
}

type elimRow struct {
	mask []uint64
	data []byte
}

// pendingSymbol is a received symbol with the unknown blocks it still
// covers, in no particular order.
type pendingSymbol struct {
	data   []byte
	blocks []int
}

// covers reports whether ps still covers block bi.
func (ps *pendingSymbol) covers(bi int) bool {
	return slices.Contains(ps.blocks, bi)
}

// release drops block bi from ps's unknowns.
func (ps *pendingSymbol) release(bi int) {
	i := slices.Index(ps.blocks, bi)
	last := len(ps.blocks) - 1
	ps.blocks[i] = ps.blocks[last]
	ps.blocks = ps.blocks[:last]
}

// NewFountainDecoder builds the decoder for f's geometry.
func NewFountainDecoder(f *Fountain) *FountainDecoder {
	return newFountainDecoder(f, new(decoderStorage))
}

// newFountainDecoder builds the decoder for f's geometry in s, which is
// new or was emptied after an earlier decoder used it.
func newFountainDecoder(f *Fountain, s *decoderStorage) *FountainDecoder {
	if s.seen == nil {
		s.seen = map[int]bool{}
	}
	s.blocks = slices.Grow(s.blocks[:0], f.K)[:f.K]
	clear(s.blocks)
	return &FountainDecoder{f: f, decoderStorage: s}
}

// empty readies s for the next decoder, keeping its storage.
func (s *decoderStorage) empty() {
	clear(s.seen)
	s.pending, s.syms, s.sets, s.solved = s.pending[:0], s.syms[:0], s.sets[:0], s.solved[:0]
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
	// data is the caller's (a frame's payload), so the decoder keeps a
	// copy.
	at := len(d.syms)
	d.syms = append(d.syms, data...)
	buf := d.syms[at:len(d.syms):len(d.syms)]
	at = len(d.sets)
	d.sets = d.f.AppendSymbolBlocks(d.sets, id)
	unknown := d.sets[at:at]
	for _, bi := range d.sets[at:] {
		if kb := d.blocks[bi]; kb != nil {
			xorInto(buf, kb) // already-released block: subtract immediately
		} else {
			unknown = append(unknown, bi)
		}
	}
	d.sets = d.sets[:at+len(unknown)]
	d.pending = append(d.pending, pendingSymbol{data: buf, blocks: unknown[:len(unknown):len(unknown)]})
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
// continues. The system is built in the decoder's scratch, so an attempt
// that finds it rank-deficient allocates nothing once the scratch has
// grown.
func (d *FountainDecoder) gaussian() {
	e := &d.elim
	e.unknowns = e.unknowns[:0]
	e.col = slices.Grow(e.col[:0], d.f.K)[:d.f.K]
	for bi := 0; bi < d.f.K; bi++ {
		if d.blocks[bi] == nil {
			e.col[bi] = len(e.unknowns)
			e.unknowns = append(e.unknowns, bi)
		}
	}
	nu := len(e.unknowns)
	if nu == 0 || len(d.pending) < nu {
		return
	}
	d.Attempts++
	words, bb, n := (nu+63)/64, d.f.BlockBytes, len(d.pending)
	e.masks = slices.Grow(e.masks[:0], n*words)[:n*words]
	clear(e.masks)
	e.data = slices.Grow(e.data[:0], n*bb)[:n*bb]
	e.rows = slices.Grow(e.rows[:0], n)[:n]
	rows := e.rows
	for i, ps := range d.pending {
		r := elimRow{mask: e.masks[i*words : (i+1)*words], data: e.data[i*bb : (i+1)*bb]}
		copy(r.data, ps.data)
		for _, bi := range ps.blocks {
			j := e.col[bi]
			r.mask[j/64] |= 1 << (j % 64)
		}
		rows[i] = r
	}
	// Forward elimination with column pivoting: rows[:col] are the rows
	// solved so far.
	for col := 0; col < nu; col++ {
		pivot := -1
		for i := col; i < len(rows); i++ {
			if rows[i].mask[col/64]&(1<<(col%64)) != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			return // rank-deficient: wait for more symbols
		}
		rows[col], rows[pivot] = rows[pivot], rows[col]
		for i := range rows {
			if i == col {
				continue
			}
			if rows[i].mask[col/64]&(1<<(col%64)) != 0 {
				for w := range rows[i].mask {
					rows[i].mask[w] ^= rows[col].mask[w]
				}
				xorInto(rows[i].data, rows[col].data)
			}
		}
	}
	// Full rank: after Gauss–Jordan above, rows[j] holds exactly unknown
	// j. The blocks take a copy, since the scratch serves the next
	// attempt; a solved system leaves no unknown, so solved is written
	// once.
	d.solved = slices.Grow(d.solved[:0], nu*bb)[:nu*bb]
	for j, bi := range e.unknowns {
		b := d.solved[j*bb : (j+1)*bb : (j+1)*bb]
		copy(b, rows[j].data)
		d.blocks[bi] = b
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
			bi := ps.blocks[0]
			ps.blocks = ps.blocks[:0]
			if d.blocks[bi] != nil {
				continue // redundant release
			}
			// ps now covers nothing, so nothing XORs into its data again
			// and the compaction below drops it: the block takes its data.
			d.blocks[bi] = ps.data
			d.decoded++
			for j := range d.pending {
				other := &d.pending[j]
				if other.covers(bi) {
					other.release(bi)
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
