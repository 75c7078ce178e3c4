package coding

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/obs"
	"witag/internal/stats"
)

// Transfer modes. Both transferers drive one core.System the way
// link.Transferer does — every encoded symbol/shard rides in one
// CRC-protected core.Codec frame spanning however many query rounds its
// bits need — so ARQ, fountain and RS compare over identical worlds.

// Backoff bounds the wait after a round erasure (missed trigger or lost
// block ACK), mirroring link.Policy's capped exponential with jitter.
type Backoff struct {
	Base time.Duration
	Cap  time.Duration
	// JitterFrac spreads each wait by ±this fraction from the labeled RNG.
	JitterFrac float64
}

// DefaultBackoff matches link.DefaultPolicy's pacing.
func DefaultBackoff() Backoff {
	return Backoff{Base: 2 * time.Millisecond, Cap: 32 * time.Millisecond, JitterFrac: 0.25}
}

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
	Delivered    bool
	PayloadBytes int
	Received     []byte `json:"-"`

	FramesSent    int // symbol/shard frames put on the air
	FramesOK      int // frames whose CRC verdict was clean
	FrameErasures int // frames erased by a missed trigger or lost BA
	FrameErrors   int // frames lost to CRC/decode failure
	Rounds        int // query rounds on the air

	DecodeAttempts int // peeling passes (fountain) / reconstructions (RS)
	ParityResizes  int // GuardRider adaptation events (RS only)
	FinalK, FinalN int // last block geometry (RS only)

	BackoffWait time.Duration
	Airtime     time.Duration // on-air time plus backoff waits
}

// GoodputBps returns delivered payload bits per second of airtime.
func (s *Stats) GoodputBps() float64 {
	if !s.Delivered || s.Airtime <= 0 {
		return 0
	}
	return float64(s.PayloadBytes*8) / s.Airtime.Seconds()
}

// frameOutcome classifies one frame attempt.
type frameOutcome int

const (
	frameOK frameOutcome = iota
	frameErased
	frameError
)

// sender is the shared frame loop: encode a frame payload with the fixed
// codec, push its bits through query rounds, decode the client's view.
// Not safe for concurrent use, like the System it drives.
type sender struct {
	sys   *core.System
	env   *channel.Environment
	stepS float64
	codec core.Codec
	bo    Backoff
	rng   *rand.Rand

	consecErased int
}

// start counts a transfer into the system's observer, which receives the
// sender's metrics and trace events under the system's trace identity,
// and attributes the environment's Advance calls to the channel phase.
func (s *sender) start() {
	if o := s.sys.Obs; o != nil {
		if s.env != nil {
			s.env.Spans = o.Spans.Lane(s.sys.TraceID)
		}
		o.Coding.TransfersStarted.Inc()
	}
}

// spans returns the sender's phase timers, in its trace ID's lane (nil
// when detached).
func (s *sender) spans() *obs.Spans {
	if o := s.sys.Obs; o != nil {
		return o.Spans.Lane(s.sys.TraceID)
	}
	return nil
}

// send pushes one frame and classifies the outcome; on frameOK the
// decoded frame payload is returned.
func (s *sender) send(fp []byte, st *Stats) ([]byte, frameOutcome, error) {
	spans := s.spans()
	sp := spans.Start()
	bits, err := s.codec.Encode(fp)
	if err != nil {
		return nil, frameError, err
	}
	sp = spans.Lap(obs.PhaseCodingEncode, sp)
	st.FramesSent++
	dataLen := s.sys.Spec.DataLen
	rxBits := make([]byte, 0, len(bits))
	for off := 0; off < len(bits); off += dataLen {
		end := off + dataLen
		if end > len(bits) {
			end = len(bits)
		}
		if s.env != nil {
			s.env.Advance(s.stepS)
		}
		res, err := s.sys.QueryRound(bits[off:end])
		if err != nil {
			return nil, frameError, err
		}
		sp = spans.Start()
		st.Rounds++
		st.Airtime += res.Airtime
		if res.BALost || !res.Detected {
			st.FrameErasures++
			s.backoff(st)
			spans.End(obs.PhaseARQRound, sp)
			return nil, frameErased, nil
		}
		rxBits = append(rxBits, res.RxBits[:end-off]...)
		sp = spans.Lap(obs.PhaseARQRound, sp)
	}
	s.consecErased = 0
	got, _, derr := s.codec.Decode(rxBits)
	spans.End(obs.PhaseCodingDecode, sp)
	if derr != nil {
		st.FrameErrors++
		return nil, frameError, nil
	}
	st.FramesOK++
	return got, frameOK, nil
}

// backoff charges the capped exponential wait after the n-th consecutive
// round erasure.
func (s *sender) backoff(st *Stats) {
	s.consecErased++
	if s.bo.Base <= 0 {
		return
	}
	d := s.bo.Base
	for i := 1; i < s.consecErased && d < s.bo.Cap; i++ {
		d *= 2
	}
	if s.bo.Cap > 0 && d > s.bo.Cap {
		d = s.bo.Cap
	}
	if s.bo.JitterFrac > 0 {
		j := 1 + s.bo.JitterFrac*(2*s.rng.Float64()-1)
		d = time.Duration(float64(d) * j)
	}
	st.BackoffWait += d
	st.Airtime += d
}

// trace records one frame attempt's outcome (symbol/shard id in Offset).
func (s *sender) trace(kind string, id int, outcome string) {
	if o := s.sys.Obs; o != nil {
		o.Trace.Record(obs.Event{
			Kind: kind, Trial: s.sys.TraceID, Labels: s.sys.TraceLabels,
			Offset: id, Outcome: outcome,
		})
	}
}

// finish flushes the transfer's totals into the metrics registry.
func (s *sender) finish(scheme string, st *Stats) {
	o := s.sys.Obs
	if o == nil {
		return
	}
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
		Kind: "transfer", Trial: s.sys.TraceID, Labels: s.sys.TraceLabels,
		Delivered: st.Delivered, Length: st.PayloadBytes,
		Rounds: st.Rounds, Retries: st.FrameErrors + st.FrameErasures,
		AirtimeUs: st.Airtime.Microseconds(), Outcome: scheme,
	})
}

// ---------------------------------------------------------------------
// Fountain mode.

// FountainConfig parameterises the rateless transferer.
type FountainConfig struct {
	// BlockBytes is the source-block (and symbol) size; small symbols
	// keep the per-erasure loss small under round-erasure-heavy faults.
	BlockBytes int
	// MaxSymbols caps the transmit-until-ACK stream; 0 derives
	// 16·K + 64 from the block count (an undeliverable-channel escape,
	// not an operating point).
	MaxSymbols int
	Codec      core.Codec
	Backoff    Backoff
}

// DefaultFountainConfig is the experiment operating point.
func DefaultFountainConfig() FountainConfig {
	return FountainConfig{BlockBytes: 12, Codec: DefaultCodec(), Backoff: DefaultBackoff()}
}

// FountainTransferer moves payloads with the LT code: keep sending fresh
// encoded symbols until the peeling decoder completes. A lost symbol
// costs only the next symbol — there is no retransmission protocol.
type FountainTransferer struct {
	Sys    *core.System
	Env    *channel.Environment
	StepS  float64
	Config FountainConfig

	seed int64
	rng  *rand.Rand
}

// NewFountainTransferer wires the rateless loop over sys; seed both the
// symbol pseudo-randomness and the backoff jitter from one labeled
// stats.SubSeed path.
func NewFountainTransferer(sys *core.System, env *channel.Environment, cfg FountainConfig, seed int64) *FountainTransferer {
	return &FountainTransferer{Sys: sys, Env: env, StepS: 0.05, Config: cfg, seed: seed, rng: stats.NewRNG(stats.SubSeed(seed, "backoff"))}
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
	f, err := NewFountain(len(payload), cfg.BlockBytes, stats.SubSeed(t.seed, "sym"))
	if err != nil {
		return nil, err
	}
	st := &Stats{PayloadBytes: len(payload)}
	snd := &sender{sys: t.Sys, env: t.Env, stepS: t.StepS, codec: cfg.Codec, bo: cfg.Backoff,
		rng: t.rng}
	snd.start()
	defer snd.finish("fountain", st)

	dec := NewFountainDecoder(f)
	maxSymbols := cfg.MaxSymbols
	if maxSymbols <= 0 {
		maxSymbols = 16*f.K + 64
	}
	for id := 0; id < maxSymbols && !dec.Done(); id++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		sp := snd.spans().Start()
		sym, err := f.Symbol(payload, id)
		if err != nil {
			return st, err
		}
		snd.spans().End(obs.PhaseCodingEncode, sp)
		fp := make([]byte, 0, fountainHeader+len(sym))
		fp = append(fp, byte(id>>8), byte(id))
		fp = append(fp, sym...)
		got, outcome, err := snd.send(fp, st)
		if err != nil {
			return st, err
		}
		if o := t.Sys.Obs; o != nil {
			o.Coding.SymbolsSent.Inc()
		}
		switch outcome {
		case frameErased:
			snd.trace("symbol", id, "erased")
			continue
		case frameError:
			snd.trace("symbol", id, "frame_error")
			continue
		}
		if len(got) != fountainHeader+cfg.BlockBytes {
			// CRC passed but the length is wrong — residual corruption;
			// drop the symbol, the stream provides more.
			st.FrameErrors++
			snd.trace("symbol", id, "frame_error")
			continue
		}
		rxID := int(got[0])<<8 | int(got[1])
		sp = snd.spans().Start()
		_, addErr := dec.Add(rxID, got[fountainHeader:])
		snd.spans().End(obs.PhaseCodingDecode, sp)
		if addErr != nil {
			st.FrameErrors++
			snd.trace("symbol", id, "frame_error")
			continue
		}
		snd.trace("symbol", id, "ok")
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
	// WindowFrames sizes the sliding erasure-rate window (GuardRider's
	// ambient-traffic statistic); PriorLoss seeds it before any
	// observation.
	WindowFrames int
	PriorLoss    float64
	// MarginShards is added to the expectation-sized parity budget.
	MarginShards int
	// MaxLoss caps the windowed estimate so the parity budget stays
	// finite on a black channel.
	MaxLoss float64
	// BlockRetries re-sends a block (with re-estimated, larger parity)
	// when fewer than k shards survive.
	BlockRetries int
	Codec        core.Codec
	Backoff      Backoff
}

// DefaultRSConfig is the experiment operating point.
func DefaultRSConfig() RSConfig {
	return RSConfig{
		ShardBytes:   12,
		DataShards:   8,
		WindowFrames: 48,
		PriorLoss:    0.10,
		MarginShards: 1,
		MaxLoss:      0.75,
		BlockRetries: 8,
		Codec:        DefaultCodec(),
		Backoff:      DefaultBackoff(),
	}
}

// lossWindow is the sliding window of recent per-frame erasure verdicts.
type lossWindow struct {
	ring []bool
	n    int
	idx  int
	lost int
}

func newLossWindow(frames int) *lossWindow { return &lossWindow{ring: make([]bool, frames)} }

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
// adaptation loop.
type RSTransferer struct {
	Sys    *core.System
	Env    *channel.Environment
	StepS  float64
	Config RSConfig

	rng    *rand.Rand
	window *lossWindow
	codes  map[[2]int]*RS
}

// NewRSTransferer wires the adaptive-RS loop over sys; seed the backoff
// jitter from a labeled stats.SubSeed path.
func NewRSTransferer(sys *core.System, env *channel.Environment, cfg RSConfig, seed int64) *RSTransferer {
	return &RSTransferer{
		Sys: sys, Env: env, StepS: 0.05, Config: cfg,
		rng:    stats.NewRNG(stats.SubSeed(seed, "backoff")),
		window: newLossWindow(cfg.WindowFrames),
		codes:  map[[2]int]*RS{},
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
	if p > t.Config.MaxLoss {
		p = t.Config.MaxLoss
	}
	n := int(float64(k)/(1-p)) + 1 + t.Config.MarginShards
	m := n - k
	if m < 1 {
		m = 1
	}
	if k+m > MaxShards {
		m = MaxShards - k
	}
	return m
}

// code returns the cached (k, m) RS instance.
func (t *RSTransferer) code(k, m int) (*RS, error) {
	if c := t.codes[[2]int{k, m}]; c != nil {
		return c, nil
	}
	c, err := NewRS(k, m)
	if err != nil {
		return nil, err
	}
	t.codes[[2]int{k, m}] = c
	return c, nil
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
	st := &Stats{PayloadBytes: len(payload)}
	snd := &sender{sys: t.Sys, env: t.Env, stepS: t.StepS, codec: cfg.Codec, bo: cfg.Backoff,
		rng: t.rng}
	snd.start()
	defer snd.finish("rs", st)

	out := make([]byte, len(payload))
	blockSpan := cfg.DataShards * cfg.ShardBytes
	lastM := -1
	for blockIdx, at := 0, 0; at < len(payload); blockIdx, at = blockIdx+1, at+blockSpan {
		span := len(payload) - at
		if span > blockSpan {
			span = blockSpan
		}
		k := (span + cfg.ShardBytes - 1) / cfg.ShardBytes
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, cfg.ShardBytes)
			start := at + i*cfg.ShardBytes
			end := start + cfg.ShardBytes
			if end > len(payload) {
				end = len(payload)
			}
			copy(data[i], payload[start:end])
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
		sp := snd.spans().Start()
		parity, err := rs.Parity(data)
		if err != nil {
			return st, err
		}
		snd.spans().End(obs.PhaseCodingEncode, sp)
		// First wave: data shards plus a parity budget sized from the
		// windowed erasure rate.
		m0 := t.parityFor(k, t.window.Rate(cfg.PriorLoss))
		if m0 > mCap {
			m0 = mCap
		}
		if lastM >= 0 && m0 != lastM {
			st.ParityResizes++
			if o := t.Sys.Obs; o != nil {
				o.Coding.ParityResizes.Inc()
			}
		}
		lastM = m0
		targets := make([]int, 0, k+m0)
		for si := 0; si < k+m0; si++ {
			targets = append(targets, si)
		}
		sentParity := m0
		rx := make([][]byte, k+mCap)
		got := 0
		delivered := false
		for wave := 0; wave <= cfg.BlockRetries && !delivered; wave++ {
			for _, si := range targets {
				if err := ctx.Err(); err != nil {
					return st, err
				}
				var shard []byte
				if si < k {
					shard = data[si]
				} else {
					shard = parity[si-k]
				}
				fp := make([]byte, 0, rsHeader+len(shard))
				fp = append(fp, byte(blockIdx), byte(si))
				fp = append(fp, shard...)
				dec, outcome, err := snd.send(fp, st)
				if err != nil {
					return st, err
				}
				if o := t.Sys.Obs; o != nil {
					o.Coding.ShardsSent.Inc()
				}
				lost := outcome != frameOK
				if !lost {
					if len(dec) != rsHeader+cfg.ShardBytes || int(dec[1]) >= k+mCap {
						st.FrameErrors++ // CRC-passing residual corruption
						lost = true
					}
				}
				t.window.Observe(lost)
				if lost {
					snd.trace("shard", si, "erased")
					continue
				}
				ri := int(dec[1])
				if rx[ri] == nil {
					got++
				}
				rx[ri] = append([]byte(nil), dec[rsHeader:]...)
				snd.trace("shard", si, "ok")
			}
			if got >= k {
				st.DecodeAttempts++
				if o := t.Sys.Obs; o != nil {
					o.Coding.DecodeAttempts.Inc()
				}
				sp := snd.spans().Start()
				if err := rs.Reconstruct(rx); err != nil {
					return st, err
				}
				snd.spans().End(obs.PhaseCodingDecode, sp)
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
			p := t.window.Rate(cfg.PriorLoss)
			if p > cfg.MaxLoss {
				p = cfg.MaxLoss
			}
			need := k - got
			extra := int(float64(need)/(1-p)) + cfg.MarginShards
			if sentParity+extra > mCap {
				extra = mCap - sentParity
			}
			if extra <= 0 {
				break // parity space exhausted — the block is undeliverable
			}
			st.ParityResizes++
			if o := t.Sys.Obs; o != nil {
				o.Coding.ParityResizes.Inc()
			}
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
