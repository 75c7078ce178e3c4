package link

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

// Policy bounds the ARQ loop.
type Policy struct {
	// RetryBudget is the total failed frame attempts tolerated across the
	// whole transfer before giving up. 0 disables ARQ entirely: every
	// segment gets exactly one attempt (the robustness baseline).
	RetryBudget int
	// BackoffBase is the wait after the first round erasure (missed
	// trigger or lost block ACK); consecutive erasures double it up to
	// BackoffCap. Frame CRC failures retry immediately — the channel
	// answered, it just answered garbage — so backoff only throttles the
	// cases where blasting again into ongoing interference wastes air.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterFrac spreads each backoff by ±this fraction, drawn from the
	// transferer's labeled RNG, so co-located queriers don't resynchronise
	// their retries.
	JitterFrac float64
}

// DefaultPolicy matches the robustness experiment's ARQ configuration.
func DefaultPolicy() Policy {
	return Policy{
		RetryBudget: 96,
		BackoffBase: 2 * time.Millisecond,
		BackoffCap:  32 * time.Millisecond,
		JitterFrac:  0.25,
	}
}

// Stats reports one transfer.
type Stats struct {
	Delivered    bool
	PayloadBytes int
	// Received is the reassembled payload when Delivered.
	Received []byte `json:"-"`

	FramesSent     int // frame attempts, including failures
	Rounds         int // query rounds on the air
	Retries        int // failed frame attempts that were retried
	RoundFailures  int // attempts erased by a missed trigger or lost BA
	DesyncErrors   int // decode failures: sync/short/length (framing lost)
	ResidualErrors int // decode failures: CRC or uncorrectable FEC
	CorrectedBits  int // FEC corrections across delivered frames
	FinalLevel     int // coding rung at the end of the transfer

	BackoffWait time.Duration
	Airtime     time.Duration // on-air time plus backoff waits
}

// GoodputBps returns delivered payload bits per second of airtime
// (0 when the transfer failed).
func (s *Stats) GoodputBps() float64 {
	if !s.Delivered || s.Airtime <= 0 {
		return 0
	}
	return float64(s.PayloadBytes*8) / s.Airtime.Seconds()
}

// Transferer runs reliable transfers over one deployment. Like the
// core.System it drives, it is not safe for concurrent use; parallel
// campaigns build one per trial.
type Transferer struct {
	Sys    *core.System
	Policy Policy
	// Controller adapts the coding; use NewFixedController for a no-ARQ
	// or no-adaptation baseline.
	Controller *CodingController
	// Env, when non-nil, advances StepS seconds of scatterer motion
	// before every query round — the same fading dynamics sim.MeasureRun
	// applies.
	Env   *channel.Environment
	StepS float64

	rng *rand.Rand
}

// NewTransferer wires a transfer loop over sys. Seed every instance from
// a labeled stats.SubSeed path — the backoff jitter is the loop's only
// randomness, and it must never come from a shared or wall-clock source
// (the worker-count determinism contract, DESIGN.md §8).
func NewTransferer(sys *core.System, env *channel.Environment, pol Policy, cc *CodingController, seed int64) *Transferer {
	return &Transferer{
		Sys:        sys,
		Policy:     pol,
		Controller: cc,
		Env:        env,
		StepS:      0.05,
		rng:        stats.NewRNG(seed),
	}
}

// attemptOutcome classifies one frame attempt.
type attemptOutcome int

const (
	attemptOK attemptOutcome = iota
	attemptRoundErased
	attemptFrameError
)

// Send moves payload tag→client reliably: segment, query, verify each
// frame's CRC, selectively re-query failed ranges, back off after round
// erasures, and adapt coding to the observed frame-error rate. It returns
// the transfer's stats; Delivered is false when the retry budget runs out
// (that is an outcome, not an error — errors are reserved for broken
// configuration or a cancelled context).
func (t *Transferer) Send(ctx context.Context, payload []byte) (*Stats, error) {
	if len(payload) == 0 || len(payload) > MaxTransfer {
		return nil, fmt.Errorf("link: payload %d bytes outside [1,%d]", len(payload), MaxTransfer)
	}
	if t.Sys == nil || t.Controller == nil {
		return nil, fmt.Errorf("link: transferer needs a system and a controller")
	}
	st := &Stats{PayloadBytes: len(payload)}
	// The system's observer also receives the transfer/segment metrics
	// and trace events, under the system's trace identity. Passive: no
	// RNG draws, no effect on the ARQ loop.
	if o := t.Sys.Obs; o != nil {
		if t.Env != nil {
			// Attribute the pre-round Advance calls in attempt to the
			// channel phase.
			t.Env.Spans = o.Spans.Lane(t.Sys.TraceID)
		}
		o.Link.TransfersStarted.Inc()
		// Flush the transfer's totals on every exit path — including
		// cancellation — so live /metrics and the trace agree with the
		// returned Stats.
		defer func() {
			m := o.Link
			m.SegmentsSent.Add(int64(st.FramesSent))
			m.Retries.Add(int64(st.Retries))
			m.RoundFailures.Add(int64(st.RoundFailures))
			m.DesyncErrors.Add(int64(st.DesyncErrors))
			m.ResidualErrors.Add(int64(st.ResidualErrors))
			m.CorrectedBits.Add(int64(st.CorrectedBits))
			if st.Delivered {
				m.TransfersDelivered.Inc()
			} else {
				m.TransfersFailed.Inc()
			}
			o.Trace.Record(obs.Event{
				Kind:      "transfer",
				Trial:     t.Sys.TraceID,
				Labels:    t.Sys.TraceLabels,
				Delivered: st.Delivered,
				Length:    st.PayloadBytes,
				Rounds:    st.Rounds,
				Retries:   st.Retries,
				Level:     st.FinalLevel,
				AirtimeUs: st.Airtime.Microseconds(),
			})
		}()
	}
	rx := &Reassembler{}
	pending := splitRanges([]segment{{0, len(payload)}}, t.Controller.Level().SegBytes)
	budget := t.Policy.RetryBudget
	consecErased := 0

	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			st.FinalLevel = t.Controller.Index()
			return st, err
		}
		seg := pending[0]
		lvl := t.Controller.Level()
		// The controller may have shortened segments since this range was
		// queued; re-split it in place, keeping already-delivered ranges
		// untouched (offsets, not sequence numbers, make this free).
		if seg.len() > lvl.SegBytes {
			pending = append(splitRanges([]segment{seg}, lvl.SegBytes), pending[1:]...)
			continue
		}
		outcome, err := t.attempt(ctx, payload, seg, lvl, rx, st)
		if err != nil {
			st.FinalLevel = t.Controller.Index()
			return st, err
		}
		if outcome == attemptOK {
			pending = pending[1:]
			consecErased = 0
			continue
		}
		if budget <= 0 {
			st.FinalLevel = t.Controller.Index()
			return st, nil // undelivered
		}
		budget--
		st.Retries++
		if outcome == attemptRoundErased {
			consecErased++
			sp := t.spans().Start()
			wait := t.backoff(consecErased)
			st.BackoffWait += wait
			st.Airtime += wait
			t.spans().End(obs.PhaseARQRound, sp)
			if o := t.Sys.Obs; o != nil {
				o.Link.BackoffWaits.Inc()
				o.Link.BackoffWait.Observe(wait.Microseconds())
			}
		} else {
			consecErased = 0
		}
		// Selective repeat: rotate the failed range to the back so the
		// rest of the transfer progresses while this patch of channel
		// time is bad.
		pending = append(pending[1:], seg)
	}

	st.FinalLevel = t.Controller.Index()
	got, err := rx.Payload()
	if err != nil {
		return st, fmt.Errorf("link: all segments acknowledged but %w", err)
	}
	st.Received = got
	st.Delivered = true
	return st, nil
}

// attempt sends one segment as one coded frame over however many query
// rounds its bits need, then decodes the client's view.
func (t *Transferer) attempt(ctx context.Context, payload []byte, seg segment, lvl Level, rx *Reassembler, st *Stats) (attemptOutcome, error) {
	spans := t.spans()
	sp := spans.Start()
	bits, err := lvl.Codec.Encode(buildFrame(payload, seg))
	if err != nil {
		return attemptFrameError, err
	}
	sp = spans.Lap(obs.PhaseCodingEncode, sp)
	st.FramesSent++
	dataLen := t.Sys.Spec.DataLen
	rxBits := make([]byte, 0, len(bits))
	for off := 0; off < len(bits); off += dataLen {
		end := off + dataLen
		if end > len(bits) {
			end = len(bits)
		}
		// Large frames span many query rounds; checking only at segment
		// granularity would let a cancelled transfer burn a whole frame's
		// worth of airtime before noticing.
		if err := ctx.Err(); err != nil {
			return attemptFrameError, err
		}
		if t.Env != nil {
			t.Env.Advance(t.StepS)
		}
		res, err := t.Sys.QueryRound(bits[off:end])
		if err != nil {
			return attemptFrameError, err
		}
		sp = spans.Start()
		st.Rounds++
		st.Airtime += res.Airtime
		// A lost block ACK is directly observable (nothing arrived before
		// the client's timeout). A missed trigger is observable too: the
		// tag never modulates, so the bitmap comes back all-idle — the
		// simulation shortcuts the heuristic via the round's Detected
		// flag. Either way the round taught us nothing about coding, so
		// abandon the frame and back off.
		if res.BALost || !res.Detected {
			st.RoundFailures++
			t.traceSegment(seg, "erased")
			spans.End(obs.PhaseARQRound, sp)
			return attemptRoundErased, nil
		}
		rxBits = append(rxBits, res.RxBits[:end-off]...)
		sp = spans.Lap(obs.PhaseARQRound, sp)
	}
	got, corrected, derr := lvl.Codec.Decode(rxBits)
	spans.End(obs.PhaseCodingDecode, sp)
	if derr != nil {
		if core.DesyncError(derr) {
			st.DesyncErrors++
		} else {
			st.ResidualErrors++
		}
		t.observeVerdict(false)
		t.traceSegment(seg, "frame_error")
		return attemptFrameError, nil
	}
	off, total, chunk, perr := parseFrame(got)
	if perr != nil || off != seg.start || total != len(payload) || len(chunk) != seg.len() {
		// The CRC passed but the header disagrees with what we queried —
		// residual corruption that happened to keep the checksum valid.
		st.ResidualErrors++
		t.observeVerdict(false)
		t.traceSegment(seg, "frame_error")
		return attemptFrameError, nil
	}
	if err := rx.Add(off, total, chunk); err != nil {
		return attemptFrameError, err
	}
	st.CorrectedBits += corrected
	t.observeVerdict(true)
	t.traceSegment(seg, "ok")
	return attemptOK, nil
}

// spans returns the observer's phase timers, in the transferer's lane
// (nil when detached).
func (t *Transferer) spans() *obs.Spans {
	if o := t.Sys.Obs; o != nil {
		return o.Spans.Lane(t.Sys.TraceID)
	}
	return nil
}

// observeVerdict feeds the coding controller and counts the ladder moves
// the verdict causes.
func (t *Transferer) observeVerdict(frameOK bool) {
	before := t.Controller.Index()
	t.Controller.Observe(frameOK)
	if o := t.Sys.Obs; o != nil {
		if after := t.Controller.Index(); after > before {
			o.Link.LadderUp.Inc()
		} else if after < before {
			o.Link.LadderDown.Inc()
		}
	}
}

// traceSegment records one frame attempt's outcome.
func (t *Transferer) traceSegment(seg segment, outcome string) {
	if o := t.Sys.Obs; o != nil {
		o.Trace.Record(obs.Event{
			Kind:    "segment",
			Trial:   t.Sys.TraceID,
			Labels:  t.Sys.TraceLabels,
			Offset:  seg.start,
			Length:  seg.len(),
			Level:   t.Controller.Index(),
			Outcome: outcome,
		})
	}
}

// backoff returns the capped exponential wait after the n-th consecutive
// round erasure, with ±JitterFrac jitter from the labeled RNG.
func (t *Transferer) backoff(n int) time.Duration {
	if t.Policy.BackoffBase <= 0 {
		return 0
	}
	d := t.Policy.BackoffBase
	for i := 1; i < n && d < t.Policy.BackoffCap; i++ {
		d *= 2
	}
	if t.Policy.BackoffCap > 0 && d > t.Policy.BackoffCap {
		d = t.Policy.BackoffCap
	}
	if t.Policy.JitterFrac > 0 {
		j := 1 + t.Policy.JitterFrac*(2*t.rng.Float64()-1)
		d = time.Duration(float64(d) * j)
	}
	return d
}
