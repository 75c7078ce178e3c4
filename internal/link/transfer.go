package link

import (
	"context"
	"fmt"
	"slices"
	"sync"

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
}

// DefaultPolicy matches the robustness experiment's ARQ configuration.
func DefaultPolicy() Policy { return Policy{RetryBudget: 96} }

// Stats reports one transfer.
type Stats struct {
	TransferStats

	Retries        int // failed frame attempts that were retried
	RoundFailures  int // attempts erased by a missed trigger or lost BA
	DesyncErrors   int // decode failures: sync/short/length (framing lost)
	ResidualErrors int // decode failures: CRC or uncorrectable FEC
	CorrectedBits  int // FEC corrections across delivered frames
	FinalLevel     int // coding rung at the end of the transfer
}

// Transferer runs reliable transfers over one deployment. Like the
// core.System it drives, it is not safe for concurrent use; parallel
// campaigns build one per trial. Its storage outlives it: Release hands
// it to the next Transferer built.
type Transferer struct {
	Policy Policy
	// Controller adapts the coding; use NewFixedController for a no-ARQ
	// or no-adaptation baseline.
	Controller *CodingController

	frames *FrameSender
	*arqStorage
}

// arqStorage is what a Transferer reuses from transfer to transfer: the
// ranges still to deliver, a range's re-split pieces and the reassembler.
// Send empties each before it uses it.
type arqStorage struct {
	pending []segment
	split   []segment
	rx      Reassembler
}

// arqStorages holds the storage of released transferers.
var arqStorages sync.Pool

// NewTransferer wires a transfer loop over sys; env, when non-nil, moves
// between query rounds (see FrameSender). Seed every instance from a
// labeled stats.SubSeed path — the backoff jitter is the loop's only
// randomness.
func NewTransferer(sys *core.System, env *channel.Environment, pol Policy, cc *CodingController, seed int64) *Transferer {
	s, _ := arqStorages.Get().(*arqStorage)
	if s == nil {
		s = new(arqStorage)
	}
	return &Transferer{
		Policy:     pol,
		Controller: cc,
		frames:     NewFrameSender(sys, env, stats.NewRNG(seed)),
		arqStorage: s,
	}
}

// Release ends the transferer: its frame sender is released
// (FrameSender.Release), its storage goes to the next Transferer built,
// and its controller, when NewCodingController or
// NewFixedController made it, to the next controller they make. Neither
// t nor its controller may be used again. Releasing twice does nothing
// more.
func (t *Transferer) Release() {
	t.frames.Release()
	if s := t.arqStorage; s != nil {
		arqStorages.Put(s)
		t.arqStorage = nil
	}
	if cc := t.Controller; cc != nil {
		cc.release()
		t.Controller = nil
	}
}

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
	if t.frames.Sys == nil || t.Controller == nil {
		return nil, fmt.Errorf("link: transferer needs a system and a controller")
	}
	st := &Stats{TransferStats: TransferStats{PayloadBytes: len(payload)}}
	// Passive: no RNG draws, no effect on the ARQ loop.
	o := t.frames.Sys.Obs
	if o != nil {
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
				Trial:     t.frames.Sys.TraceID,
				Labels:    t.frames.Sys.TraceLabels,
				Delivered: st.Delivered,
				Length:    st.PayloadBytes,
				Rounds:    st.Rounds,
				Retries:   st.Retries,
				Level:     st.FinalLevel,
				AirtimeUs: st.Airtime.Microseconds(),
			})
		}()
	}
	rx := &t.rx
	rx.reset()
	// pending always starts at its array's start, so the storage keeps
	// the whole array when an append moves it.
	pending := splitRange(t.pending[:0], segment{0, len(payload)}, t.Controller.Level().SegBytes)
	t.pending = pending
	budget := t.Policy.RetryBudget

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
			t.split = splitRange(t.split[:0], seg, lvl.SegBytes)
			pending = slices.Replace(pending, 0, 1, t.split...)
			t.pending = pending
			continue
		}
		ok, erased, err := t.attempt(ctx, payload, seg, lvl, rx, st)
		if err != nil {
			st.FinalLevel = t.Controller.Index()
			return st, err
		}
		if ok {
			pending = slices.Delete(pending, 0, 1)
			continue
		}
		if budget <= 0 {
			st.FinalLevel = t.Controller.Index()
			return st, nil // undelivered
		}
		budget--
		st.Retries++
		if erased {
			spans := t.frames.Sys.Spans
			sp := spans.Start()
			wait := t.frames.Backoff(&st.TransferStats)
			spans.End(obs.PhaseARQRound, sp)
			if o != nil {
				o.Link.BackoffWaits.Inc()
				o.Link.BackoffWait.Observe(wait.Microseconds())
			}
		}
		// Selective repeat: rotate the failed range to the back so the
		// rest of the transfer progresses while this patch of channel
		// time is bad. Rotating in place keeps the queue's storage.
		copy(pending, pending[1:])
		pending[len(pending)-1] = seg
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

// attempt sends one segment as one coded frame and classifies the
// client's view: delivered (ok), erased by a round that taught us nothing
// about coding, or a frame error.
func (t *Transferer) attempt(ctx context.Context, payload []byte, seg segment, lvl Level, rx *Reassembler, st *Stats) (ok, erased bool, err error) {
	fr, err := t.frames.Send(ctx, lvl.Codec, buildFrame(t.frames, payload, seg), &st.TransferStats)
	if err != nil {
		return false, false, err
	}
	if fr.Erased {
		st.RoundFailures++
		t.traceSegment(seg, "erased")
		return false, true, nil
	}
	if fr.DecodeErr != nil {
		if core.DesyncError(fr.DecodeErr) {
			st.DesyncErrors++
		} else {
			st.ResidualErrors++
		}
		t.observeVerdict(false)
		t.traceSegment(seg, "frame_error")
		return false, false, nil
	}
	off, total, chunk, perr := parseFrame(fr.Payload)
	if perr != nil || off != seg.start || total != len(payload) || len(chunk) != seg.len() {
		// The CRC passed but the header disagrees with what we queried —
		// residual corruption that happened to keep the checksum valid.
		st.ResidualErrors++
		t.observeVerdict(false)
		t.traceSegment(seg, "frame_error")
		return false, false, nil
	}
	if err := rx.Add(off, total, chunk); err != nil {
		return false, false, err
	}
	st.CorrectedBits += fr.Corrected
	t.observeVerdict(true)
	t.traceSegment(seg, "ok")
	return true, false, nil
}

// observeVerdict feeds the coding controller and counts the ladder moves
// the verdict causes.
func (t *Transferer) observeVerdict(frameOK bool) {
	before := t.Controller.Index()
	t.Controller.Observe(frameOK)
	if o := t.frames.Sys.Obs; o != nil {
		if after := t.Controller.Index(); after > before {
			o.Link.LadderUp.Inc()
		} else if after < before {
			o.Link.LadderDown.Inc()
		}
	}
}

// traceSegment records one frame attempt's outcome.
func (t *Transferer) traceSegment(seg segment, outcome string) {
	if o := t.frames.Sys.Obs; o != nil {
		o.Trace.Record(obs.Event{
			Kind:    "segment",
			Trial:   t.frames.Sys.TraceID,
			Labels:  t.frames.Sys.TraceLabels,
			Offset:  seg.start,
			Length:  seg.len(),
			Level:   t.Controller.Index(),
			Outcome: outcome,
		})
	}
}
