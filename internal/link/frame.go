package link

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/obs"
	"witag/internal/stats"
)

// Backoff pacing, shared by every transfer discipline: the wait after the
// first round erasure (missed trigger or lost block ACK) doubles with each
// consecutive erasure up to the cap, and each wait is spread by ±jitter
// from the transferer's labeled RNG so co-located queriers don't
// resynchronise their retries. Frame CRC failures never back off — the
// channel answered, it just answered garbage — so backoff only throttles
// the cases where blasting again into ongoing interference wastes air.
const (
	backoffBase   = 2 * time.Millisecond
	backoffCap    = 32 * time.Millisecond
	backoffJitter = 0.25
)

// backoffWait is the wait after the n-th consecutive erasure, jittered by
// the uniform draw u ∈ [0,1) (u = 0.5 is the unjittered wait).
func backoffWait(n int, u float64) time.Duration {
	d := backoffBase
	for i := 1; i < n && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	return time.Duration(float64(d) * (1 + backoffJitter*(2*u-1)))
}

// TransferStats is the part of a transfer's report every discipline
// shares; the frame loop fills the on-air counts.
type TransferStats struct {
	Delivered    bool
	PayloadBytes int
	// Received is the reassembled payload when Delivered.
	Received []byte `json:"-"`

	FramesSent int // frame attempts, including failures
	Rounds     int // query rounds on the air

	BackoffWait time.Duration
	Airtime     time.Duration // on-air time plus backoff waits
}

// GoodputBps returns delivered payload bits per second of airtime
// (0 when the transfer failed).
func (s *TransferStats) GoodputBps() float64 {
	if !s.Delivered || s.Airtime <= 0 {
		return 0
	}
	return float64(s.PayloadBytes*8) / s.Airtime.Seconds()
}

// FrameSender is the frame round-trip every transfer discipline — ARQ,
// LT and RS — puts its frames on the air with: encode a frame payload,
// spread its bits over query rounds, treat a missed trigger or lost block
// ACK as an erasure, and decode the client's view. It also owns the
// consecutive-erasure count and the jitter RNG the backoff draws from,
// and every byte a frame passes through: the frame payload (Payload),
// the codec's frame bytes and bits, the received bits and the decoded
// payload, all reused from frame to frame, so a frame allocates nothing
// once they have grown. That storage outlives the sender: Release hands
// it to the next FrameSender built. Like the core.System it drives, it is
// not safe for concurrent use.
type FrameSender struct {
	Sys *core.System

	// env, when non-nil, advances channel.RoundStepS of scatterer motion
	// before every query round through Sys.Advance — the same fading
	// dynamics sim.MeasureRun applies.
	env    *channel.Environment
	rng    *rand.Rand
	erased int // consecutive erased frames
	*frameStorage
}

// frameStorage is the bytes a FrameSender's frames pass through.
type frameStorage struct {
	fp    []byte            // the frame payload Payload builds
	codec core.CodecBuffers // the frame's bytes and bits, sent and decoded
	rx    []byte            // received bits
	res   core.RoundResult  // every round's result, its bits copied into rx
}

// frameStorages holds the storage of released frame senders.
var frameStorages sync.Pool

// NewFrameSender wires the frame loop over sys. rng is the backoff
// jitter's only source; seed it from a labeled stats.SubSeed path, never
// a shared or wall-clock one (the worker-count determinism contract,
// DESIGN.md §8).
func NewFrameSender(sys *core.System, env *channel.Environment, rng *rand.Rand) *FrameSender {
	s, _ := frameStorages.Get().(*frameStorage)
	if s == nil {
		s = new(frameStorage)
	}
	return &FrameSender{Sys: sys, env: env, rng: rng, frameStorage: s}
}

// Release ends the sender: its backoff stream is released
// (stats.Release), so a later Backoff panics, and its storage goes to the
// next FrameSender built, whose frames overwrite it, so a later Send
// panics. Releasing twice does nothing more.
func (f *FrameSender) Release() {
	stats.Release(f.rng)
	if s := f.frameStorage; s != nil {
		frameStorages.Put(s)
		f.frameStorage = nil
	}
}

// Frame is one frame attempt's outcome.
type Frame struct {
	// Erased reports that a round of the frame was erased by a missed
	// trigger or a lost block ACK; the frame was abandoned there.
	Erased bool
	// Payload, Corrected and DecodeErr are the codec's verdict on a frame
	// whose rounds all completed. core.DesyncError splits framing loss
	// from residual errors. Payload is the sender's storage: it stays
	// valid until the sender's next Send or its Release, so a caller
	// copies what it keeps (DESIGN.md §17, stage 11).
	Payload   []byte
	Corrected int
	DecodeErr error
}

// Payload returns hdr followed by body in the sender's frame-payload
// storage, for the next Send. It stays valid until the next Payload call.
func (f *FrameSender) Payload(hdr, body []byte) []byte {
	f.fp = append(append(f.fp[:0], hdr...), body...)
	return f.fp
}

// Send pushes the frame payload fp, coded with codec, through however
// many query rounds its bits need and charges the rounds to st. ctx is
// checked before every round: large frames span many rounds, and a
// cancelled transfer must not burn a whole frame's airtime before
// noticing. The error is reserved for broken configuration or a cancelled
// context; a lost frame is an outcome. fp must not alias the previous
// Frame's Payload.
func (f *FrameSender) Send(ctx context.Context, codec core.Codec, fp []byte, st *TransferStats) (Frame, error) {
	spans := f.Sys.Spans
	sp := spans.Start()
	bits, err := codec.EncodeInto(&f.codec, fp)
	if err != nil {
		return Frame{}, err
	}
	sp = spans.Lap(obs.PhaseCodingEncode, sp)
	st.FramesSent++
	dataLen := f.Sys.Spec.DataLen
	rxBits := f.rx[:0]
	for off := 0; off < len(bits); off += dataLen {
		end := min(off+dataLen, len(bits))
		if err := ctx.Err(); err != nil {
			return Frame{}, err
		}
		if f.env != nil {
			f.Sys.Advance(f.env)
		}
		res := &f.res
		if err := f.Sys.QueryRoundInto(bits[off:end], res); err != nil {
			return Frame{}, err
		}
		sp = spans.Start()
		st.Rounds++
		st.Airtime += res.Airtime
		// A lost block ACK is directly observable (nothing arrived before
		// the client's timeout). A missed trigger is observable too: the
		// tag never modulates, so the bitmap comes back all-idle — the
		// simulation shortcuts the heuristic via the round's Detected
		// flag. Either way the rest of the frame is lost.
		if res.BALost || !res.Detected {
			spans.End(obs.PhaseARQRound, sp)
			return Frame{Erased: true}, nil
		}
		rxBits = append(rxBits, res.RxBits[:end-off]...)
		f.rx = rxBits
		sp = spans.Lap(obs.PhaseARQRound, sp)
	}
	f.erased = 0
	// The sent bits are spent: the decode overwrites the codec's storage.
	fr := Frame{}
	coded, err := codec.Deinterleave(&f.codec, rxBits)
	sp = spans.Lap(obs.PhaseDeinterleave, sp)
	if err == nil {
		fr.Payload, fr.Corrected, err = codec.DecodeCoded(&f.codec, coded)
	}
	fr.DecodeErr = err
	spans.End(obs.PhaseCodingDecode, sp)
	return fr, nil
}

// Backoff draws the wait after one more consecutive erased frame, charges
// it to st as airtime, and returns it.
func (f *FrameSender) Backoff(st *TransferStats) time.Duration {
	f.erased++
	d := backoffWait(f.erased, f.rng.Float64())
	st.BackoffWait += d
	st.Airtime += d
	return d
}
