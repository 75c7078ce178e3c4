package coding

import (
	"context"
	"fmt"
	"sync"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/link"
	"witag/internal/obs"
	"witag/internal/stats"
)

// Transfer modes. Both transferers put every encoded symbol/shard in one
// CRC-protected core.Codec frame and send it through link's frame loop —
// the one link.Transferer uses, with the same backoff — so ARQ, fountain
// and RS compare over identical worlds and differ only in what they put
// in a frame.

// DefaultCodec is the fixed per-frame protection both coded modes use:
// SECDED with moderate interleaving, the middle rung of link's ladder.
// The codes' repair capacity lives above the frame (extra symbols,
// parity shards), so a fixed frame coding replaces link's AIMD ladder;
// SECDED is kept because without it almost no frame survives a burst
// state intact, starving the erasure layer of symbols.
func DefaultCodec() core.Codec { return core.Codec{FEC: true, InterleaveDepth: 8} }

// Stats reports one coded transfer; the field set is the union of both
// schemes so the experiment harness aggregates them uniformly.
type Stats struct {
	link.TransferStats

	FramesOK      int // frames whose CRC verdict was clean
	FrameErasures int // frames erased by a missed trigger or lost BA
	FrameErrors   int // frames lost to CRC/decode failure

	DecodeAttempts int // peeling passes (fountain) / reconstructions (RS)
	ParityResizes  int // GuardRider adaptation events (RS only)
	FinalK, FinalN int // last block geometry (RS only)
}

// sendFrame pushes one symbol/shard frame payload through the frame loop
// with DefaultCodec, backing off after every erasure. It returns the
// decoded frame payload (nil when the frame was lost) and the frame's
// trace outcome.
func sendFrame(ctx context.Context, f *link.FrameSender, fp []byte, st *Stats) ([]byte, string, error) {
	fr, err := f.Send(ctx, DefaultCodec(), fp, &st.TransferStats)
	switch {
	case err != nil:
		return nil, "", err
	case fr.Erased:
		st.FrameErasures++
		f.Backoff(&st.TransferStats)
		return nil, "erased", nil
	case fr.DecodeErr != nil:
		st.FrameErrors++
		return nil, "frame_error", nil
	}
	st.FramesOK++
	return fr.Payload, "ok", nil
}

// traceFrame records one frame attempt's outcome (symbol/shard id in
// Offset).
func traceFrame(f *link.FrameSender, kind string, id int, outcome string) {
	if o := f.Sys.Obs; o != nil {
		o.Trace.Record(obs.Event{
			Kind: kind, Trial: f.Sys.TraceID, Labels: f.Sys.TraceLabels,
			Offset: id, Outcome: outcome,
		})
	}
}

// begin counts a transfer into the system's observer and returns the
// deferred flush of its totals into the metrics registry.
func begin(f *link.FrameSender, scheme string, st *Stats) func() {
	o := f.Sys.Obs
	if o == nil {
		return func() {}
	}
	o.Coding.TransfersStarted.Inc()
	return func() {
		m := o.Coding
		m.FramesSent.Add(int64(st.FramesSent))
		m.FrameErasures.Add(int64(st.FrameErasures))
		m.FrameErrors.Add(int64(st.FrameErrors))
		m.DecodeAttempts.Add(int64(st.DecodeAttempts))
		m.ParityResizes.Add(int64(st.ParityResizes))
		if st.Delivered {
			m.TransfersDelivered.Inc()
		} else {
			m.TransfersFailed.Inc()
		}
		o.Trace.Record(obs.Event{
			Kind: "transfer", Trial: f.Sys.TraceID, Labels: f.Sys.TraceLabels,
			Delivered: st.Delivered, Length: st.PayloadBytes,
			Rounds: st.Rounds, Retries: st.FrameErrors + st.FrameErasures,
			AirtimeUs: st.Airtime.Microseconds(), Outcome: scheme,
		})
	}
}

// ---------------------------------------------------------------------
// Fountain mode.

// FountainConfig parameterises the rateless transferer.
type FountainConfig struct {
	// BlockBytes is the source-block (and symbol) size; small symbols
	// keep the per-erasure loss small under round-erasure-heavy faults.
	BlockBytes int
}

// DefaultFountainConfig is the experiment operating point.
func DefaultFountainConfig() FountainConfig { return FountainConfig{BlockBytes: 12} }

// FountainTransferer moves payloads with the LT code: keep sending fresh
// encoded symbols until the peeling decoder completes. A lost symbol
// costs only the next symbol — there is no retransmission protocol.
type FountainTransferer struct {
	Config FountainConfig

	seed   int64
	frames *link.FrameSender
	*fountainStorage
}

// fountainStorage is what a FountainTransferer codes in, and what
// Release hands to the next one built: the code, set up afresh by every
// Send, the symbol being sent and the decoder's storage, emptied after
// every Send.
type fountainStorage struct {
	code Fountain
	sym  []byte
	dec  decoderStorage
}

// fountainStorages holds the storage of released fountain transferers.
var fountainStorages sync.Pool

// NewFountainTransferer wires the rateless loop over sys; seed both the
// symbol pseudo-randomness and the backoff jitter from one labeled
// stats.SubSeed path.
func NewFountainTransferer(sys *core.System, env *channel.Environment, cfg FountainConfig, seed int64) *FountainTransferer {
	s, _ := fountainStorages.Get().(*fountainStorage)
	if s == nil {
		s = new(fountainStorage)
	}
	return &FountainTransferer{Config: cfg, seed: seed,
		frames:          link.NewFrameSender(sys, env, stats.NewRNG(stats.SubSeed(seed, "backoff"))),
		fountainStorage: s}
}

// Release ends the transferer: its frame sender is released
// (link.FrameSender.Release) and its storage goes to the next
// FountainTransferer built; Send empties the decoder's storage when it
// returns and overwrites the rest. t must not be used again. Releasing
// twice does nothing more.
func (t *FountainTransferer) Release() {
	t.frames.Release()
	if s := t.fountainStorage; s != nil {
		fountainStorages.Put(s)
		t.fountainStorage = nil
	}
}

// fountainHeader is the per-symbol frame header: the 16-bit symbol ID.
const fountainHeader = 2

// Send moves payload tag→client with transmit-until-decoded semantics.
func (t *FountainTransferer) Send(ctx context.Context, payload []byte) (*Stats, error) {
	if len(payload) == 0 || len(payload) > 0xFFFF {
		return nil, fmt.Errorf("coding: payload %d bytes outside [1,65535]", len(payload))
	}
	cfg := t.Config
	if cfg.BlockBytes < 1 {
		return nil, fmt.Errorf("coding: fountain block size %d", cfg.BlockBytes)
	}
	if cfg.BlockBytes+fountainHeader > core.MaxPayload {
		return nil, fmt.Errorf("coding: fountain block %dB exceeds the %dB frame", cfg.BlockBytes, core.MaxPayload)
	}
	f := &t.code
	if err := f.init(len(payload), cfg.BlockBytes, stats.SubSeed(t.seed, "sym")); err != nil {
		return nil, err
	}
	st := &Stats{TransferStats: link.TransferStats{PayloadBytes: len(payload)}}
	defer begin(t.frames, "fountain", st)()
	spans := t.frames.Sys.Spans

	dec := newFountainDecoder(f, &t.dec)
	defer t.dec.empty()
	// The symbol cap is an undeliverable-channel escape, not an operating
	// point. It never passes the 16-bit header's IDs: a wrapped ID would
	// be decoded against another symbol's blocks.
	maxSymbols := min(16*f.K+64, 1<<16)
	for id := 0; id < maxSymbols && !dec.Done(); id++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		sp := spans.Start()
		var err error
		if t.sym, err = f.AppendSymbol(t.sym[:0], payload, id); err != nil {
			return st, err
		}
		spans.End(obs.PhaseCodingEncode, sp)
		hdr := [fountainHeader]byte{byte(id >> 8), byte(id)}
		got, outcome, err := sendFrame(ctx, t.frames, t.frames.Payload(hdr[:], t.sym), st)
		if err != nil {
			return st, err
		}
		if o := t.frames.Sys.Obs; o != nil {
			o.Coding.SymbolsSent.Inc()
		}
		if outcome == "ok" && len(got) != fountainHeader+cfg.BlockBytes {
			// CRC passed but the length is wrong — residual corruption;
			// drop the symbol, the stream provides more.
			st.FrameErrors++
			outcome = "frame_error"
		}
		if outcome == "ok" {
			rxID := int(got[0])<<8 | int(got[1])
			sp = spans.Start()
			_, addErr := dec.Add(rxID, got[fountainHeader:])
			spans.End(obs.PhaseCodingDecode, sp)
			if addErr != nil {
				st.FrameErrors++
				outcome = "frame_error"
			}
		}
		traceFrame(t.frames, "symbol", id, outcome)
	}
	st.DecodeAttempts = dec.Attempts
	if !dec.Done() {
		return st, nil // undelivered: channel worse than the symbol cap
	}
	got, err := dec.Payload()
	if err != nil {
		return st, err
	}
	st.Received = got
	st.Delivered = true
	return st, nil
}

// ---------------------------------------------------------------------
// RS mode.

// RSConfig parameterises the adaptive Reed-Solomon transferer.
type RSConfig struct {
	// ShardBytes is the payload carried per shard frame.
	ShardBytes int
	// DataShards is k, the data shards per block.
	DataShards int
}

// DefaultRSConfig is the experiment operating point.
func DefaultRSConfig() RSConfig { return RSConfig{ShardBytes: 12, DataShards: 8} }

// GuardRider's adaptation constants.
const (
	// rsWindowFrames sizes the sliding erasure-rate window (GuardRider's
	// ambient-traffic statistic); rsPriorLoss seeds it before any
	// observation.
	rsWindowFrames = 48
	rsPriorLoss    = 0.10
	// rsMarginShards is added to the expectation-sized parity budget.
	rsMarginShards = 1
	// rsMaxLoss caps the windowed estimate so the parity budget stays
	// finite on a black channel.
	rsMaxLoss = 0.75
	// rsBlockRetries re-sends a block (with re-estimated, larger parity)
	// when fewer than k shards survive.
	rsBlockRetries = 8
)

// lossWindow is the sliding window of recent per-frame erasure verdicts.
type lossWindow struct {
	ring []bool
	n    int
	idx  int
	lost int
}

func newLossWindow(frames int) *lossWindow { return &lossWindow{ring: make([]bool, frames)} }

// reset empties the window, keeping its ring.
func (w *lossWindow) reset() {
	clear(w.ring)
	w.n, w.idx, w.lost = 0, 0, 0
}

// Observe pushes one frame verdict (true = erased/corrupted).
func (w *lossWindow) Observe(lost bool) {
	if len(w.ring) == 0 {
		return
	}
	if w.n == len(w.ring) {
		if w.ring[w.idx] {
			w.lost--
		}
	} else {
		w.n++
	}
	w.ring[w.idx] = lost
	if lost {
		w.lost++
	}
	w.idx = (w.idx + 1) % len(w.ring)
}

// Rate returns the windowed erasure rate, falling back to prior until
// the window holds at least 8 verdicts.
func (w *lossWindow) Rate(prior float64) float64 {
	if w.n < 8 {
		return prior
	}
	return float64(w.lost) / float64(w.n)
}

// RSTransferer moves payloads in RS-coded blocks whose parity budget is
// re-sized from the loss window before every block — GuardRider's
// adaptation loop. Its storage outlives it: Release hands it, emptied, to
// the next RSTransferer built.
type RSTransferer struct {
	Config RSConfig

	frames *link.FrameSender
	*rsStorage
}

// rsStorage is what an RSTransferer reuses from block to block, and what
// Release hands to the next transferer: the code of each block size, the
// block's data, parity and received shards, the received shards by index,
// the wave's shard list, the loss window and the reconstruction's
// scratch.
type rsStorage struct {
	// codes[k] is the code of a k-shard block at its parity ceiling. A
	// code is immutable and counts no work, so it is kept, not emptied.
	codes      []*RS
	data       shardSet
	parity     shardSet
	parityDone int      // the block's parity shards computed so far
	rxBuf      shardSet // the received shards' storage
	rx         [][]byte // the received shards by index; nil marks an erasure
	targets    []int    // the wave's shard indices
	window     *lossWindow
	solve      rsScratch
}

// rsStorages holds the storage of released RS transferers.
var rsStorages sync.Pool

// NewRSTransferer wires the adaptive-RS loop over sys; seed the backoff
// jitter from a labeled stats.SubSeed path.
func NewRSTransferer(sys *core.System, env *channel.Environment, cfg RSConfig, seed int64) *RSTransferer {
	s, _ := rsStorages.Get().(*rsStorage)
	if s == nil {
		s = &rsStorage{window: newLossWindow(rsWindowFrames)}
	}
	return &RSTransferer{
		Config:    cfg,
		frames:    link.NewFrameSender(sys, env, stats.NewRNG(stats.SubSeed(seed, "backoff"))),
		rsStorage: s,
	}
}

// Release ends the transferer: its frame sender is released
// (link.FrameSender.Release) and its storage goes, with an empty loss
// window, to the next RSTransferer built; every block overwrites the
// rest. t must not be used again. Releasing twice does nothing more.
func (t *RSTransferer) Release() {
	t.frames.Release()
	if s := t.rsStorage; s != nil {
		s.window.reset()
		rsStorages.Put(s)
		t.rsStorage = nil
	}
}

// rsHeader is the per-shard frame header: block index and shard index.
// The block geometry (k, n) is shared transferer state — in a real
// deployment the control channel that starts a transfer would carry it —
// so it does not ride in every shard.
const rsHeader = 2

// parityFor sizes m so that k of n = k+m shards survive erasure rate p
// in expectation, plus the configured margin.
func (t *RSTransferer) parityFor(k int, p float64) int {
	if p < 0 {
		p = 0
	}
	if p > rsMaxLoss {
		p = rsMaxLoss
	}
	n := int(float64(k)/(1-p)) + 1 + rsMarginShards
	m := n - k
	if m < 1 {
		m = 1
	}
	if k+m > MaxShards {
		m = MaxShards - k
	}
	return m
}

// code returns the (k, m) code, building it only when the storage holds
// none for k.
func (s *rsStorage) code(k, m int) (*RS, error) {
	if k < len(s.codes) {
		if c := s.codes[k]; c != nil && c.M == m {
			return c, nil
		}
	}
	c, err := NewRS(k, m)
	if err != nil {
		return nil, err
	}
	if k >= len(s.codes) {
		s.codes = append(s.codes, make([]*RS, k+1-len(s.codes))...)
	}
	s.codes[k] = c
	return c, nil
}

// parityShard returns parity shard j of the block in data, computing it,
// and any shard before it still uncomputed, the first time a wave sends
// it. Each computation is one coding_encode span.
func (s *rsStorage) parityShard(rs *RS, data [][]byte, j int, spans *obs.Spans) []byte {
	for ; s.parityDone <= j; s.parityDone++ {
		sp := spans.Start()
		rs.parityShard(s.parity.shards[s.parityDone], data, s.parityDone)
		spans.End(obs.PhaseCodingEncode, sp)
	}
	return s.parity.shards[j]
}

// Send moves payload tag→client in adaptive RS blocks.
func (t *RSTransferer) Send(ctx context.Context, payload []byte) (*Stats, error) {
	cfg := t.Config
	if len(payload) == 0 || len(payload) > 0xFFFF {
		return nil, fmt.Errorf("coding: payload %d bytes outside [1,65535]", len(payload))
	}
	if cfg.ShardBytes < 1 || cfg.DataShards < 1 {
		return nil, fmt.Errorf("coding: RS shard %dB × k=%d must be ≥1", cfg.ShardBytes, cfg.DataShards)
	}
	if cfg.ShardBytes+rsHeader > core.MaxPayload {
		return nil, fmt.Errorf("coding: RS shard %dB exceeds the %dB frame", cfg.ShardBytes, core.MaxPayload)
	}
	st := &Stats{TransferStats: link.TransferStats{PayloadBytes: len(payload)}}
	defer begin(t.frames, "rs", st)()
	spans := t.frames.Sys.Spans

	out := make([]byte, len(payload))
	blockSpan := cfg.DataShards * cfg.ShardBytes
	lastM := -1
	for blockIdx, at := 0, 0; at < len(payload); blockIdx, at = blockIdx+1, at+blockSpan {
		span := len(payload) - at
		if span > blockSpan {
			span = blockSpan
		}
		k := (span + cfg.ShardBytes - 1) / cfg.ShardBytes
		data := t.data.resize(k, cfg.ShardBytes)
		for i := range data {
			start := at + i*cfg.ShardBytes
			end := start + cfg.ShardBytes
			if end > len(payload) {
				end = len(payload)
			}
			clear(data[i][copy(data[i], payload[start:end]):])
		}
		// The code is built once per k at its parity ceiling; because the
		// systematic Vandermonde parity rows for a fixed k do not depend
		// on m, shards already on the air stay valid as the budget grows —
		// the GuardRider adaptation below is pure incremental redundancy,
		// never a full-block resend.
		mCap := MaxShards - k
		if lim := 12*k + 12; mCap > lim {
			mCap = lim
		}
		rs, err := t.code(k, mCap)
		if err != nil {
			return st, err
		}
		// Parity shards are computed as the waves send them: a block
		// sends a few of its mCap.
		t.parity.resize(mCap, cfg.ShardBytes)
		t.parityDone = 0
		// First wave: data shards plus a parity budget sized from the
		// windowed erasure rate.
		m0 := t.parityFor(k, t.window.Rate(rsPriorLoss))
		if m0 > mCap {
			m0 = mCap
		}
		if lastM >= 0 && m0 != lastM {
			st.ParityResizes++
		}
		lastM = m0
		// Room for every shard index the block's waves can name, so the
		// waves append in t.targets' storage.
		if cap(t.targets) < k+mCap {
			t.targets = make([]int, 0, k+mCap)
		}
		targets := t.targets[:0]
		for si := 0; si < k+m0; si++ {
			targets = append(targets, si)
		}
		sentParity := m0
		rxBuf := t.rxBuf.resize(k+mCap, cfg.ShardBytes)
		if cap(t.rx) < k+mCap {
			t.rx = make([][]byte, k+mCap)
		}
		rx := t.rx[:k+mCap]
		clear(rx)
		got := 0
		delivered := false
		for wave := 0; wave <= rsBlockRetries && !delivered; wave++ {
			for _, si := range targets {
				if err := ctx.Err(); err != nil {
					return st, err
				}
				var shard []byte
				if si < k {
					shard = data[si]
				} else {
					shard = t.parityShard(rs, data, si-k, spans)
				}
				hdr := [rsHeader]byte{byte(blockIdx), byte(si)}
				dec, outcome, err := sendFrame(ctx, t.frames, t.frames.Payload(hdr[:], shard), st)
				if err != nil {
					return st, err
				}
				if o := t.frames.Sys.Obs; o != nil {
					o.Coding.ShardsSent.Inc()
				}
				lost := outcome != "ok"
				if !lost {
					if len(dec) != rsHeader+cfg.ShardBytes || int(dec[1]) >= k+mCap {
						st.FrameErrors++ // CRC-passing residual corruption
						lost = true
					}
				}
				t.window.Observe(lost)
				if lost {
					traceFrame(t.frames, "shard", si, "erased")
					continue
				}
				// dec is the frame sender's until its next frame: keep a
				// copy.
				ri := int(dec[1])
				if rx[ri] == nil {
					got++
				}
				rx[ri] = rxBuf[ri]
				copy(rx[ri], dec[rsHeader:])
				traceFrame(t.frames, "shard", si, "ok")
			}
			if got >= k {
				st.DecodeAttempts++
				sp := spans.Start()
				if err := rs.reconstruct(rx, &t.solve); err != nil {
					return st, err
				}
				spans.End(obs.PhaseCodingDecode, sp)
				for i := 0; i < k; i++ {
					start := at + i*cfg.ShardBytes
					end := start + cfg.ShardBytes
					if end > len(payload) {
						end = len(payload)
					}
					copy(out[start:end], rx[i][:end-start])
				}
				delivered = true
				break
			}
			// GuardRider adaptation: size the next parity wave from the
			// freshly re-estimated erasure rate and the outstanding need.
			p := t.window.Rate(rsPriorLoss)
			if p > rsMaxLoss {
				p = rsMaxLoss
			}
			need := k - got
			extra := int(float64(need)/(1-p)) + rsMarginShards
			if sentParity+extra > mCap {
				extra = mCap - sentParity
			}
			if extra <= 0 {
				break // parity space exhausted — the block is undeliverable
			}
			st.ParityResizes++
			targets = targets[:0]
			for si := k + sentParity; si < k+sentParity+extra; si++ {
				targets = append(targets, si)
			}
			sentParity += extra
		}
		st.FinalK, st.FinalN = k, k+sentParity
		if !delivered {
			return st, nil // incremental-parity budget exhausted
		}
	}
	st.Received = out
	st.Delivered = true
	return st, nil
}
