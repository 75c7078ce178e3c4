package obs

import "time"

// Phase identifies one stage of the simulated receive/transfer chain for
// phase-attribution profiling. The enum is fixed and closed: perf reports,
// PROF artifacts and witag-gate's phase-schema check all key on these
// names, so a new phase is a schema change, not a registration.
type Phase uint8

const (
	PhaseEncode       Phase = iota // the round's payload bits, query build, frame marshal, airtime plan
	PhaseChannel                   // trigger detection, the round's world read: channel + fault/traffic draws
	PhaseEqualise                  // CPE distortion and effective-SINR computation (live links only)
	PhaseDeinterleave              // deinterleaving: a tag-data frame's (link.FrameSender) and the bit-true chain's (phy.Receive)
	PhaseViterbi                   // window-table lookup and subframe decode verdicts (analytic or bit-true Viterbi)
	PhaseCRC                       // bitmap read-out, bit-error count, airtime and metric accounting
	PhaseARQRound                  // transfer-loop round bookkeeping outside QueryRound
	PhaseCodingEncode              // codec/erasure encode (ARQ ladder, fountain, RS parity)
	PhaseCodingDecode              // frame SECDED/CRC decode, erasure decode and reconstruction

	// NumPhases bounds the enum; it is not a phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"encode",
	"channel",
	"equalise",
	"deinterleave",
	"viterbi",
	"crc",
	"arq_round",
	"coding_encode",
	"coding_decode",
}

// String returns the phase's wire name ("encode", "viterbi", …).
func (p Phase) String() string {
	if p >= NumPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// SpanName returns the registry instrument name for a phase's span
// histogram, e.g. "span.viterbi_ns".
func SpanName(p Phase) string { return "span." + p.String() + "_ns" }

// Stamp is a span boundary: monotonic nanoseconds since the owning
// Spans' epoch. The zero Stamp is what a nil *Spans returns; a live Spans
// never produces it.
type Stamp int64

// Spans is the phase-span timer: one volatile integer histogram per phase,
// recording nanosecond durations. Like every instrument here it is a
// passive sink — recording a span never draws randomness or branches into
// the simulation, so science output is byte-identical with spans attached
// or not (the histograms are Volatile and excluded from the deterministic
// snapshot view). A nil *Spans disables timing entirely: Start and Lap
// return the zero Stamp and End is a no-op, so the detached hot-path cost
// is one pointer test and no clock read.
//
// A boundary costs one monotonic clock read, and Lap closes one phase and
// opens the next with that single read, so contiguous regions are timed
// without gaps. Each span histogram has Lanes lanes; a Spans records into
// one of them, and Lane hands every trial its own by the lane rule every
// laned instrument shares (see laneCells), so concurrent workers do not
// contend on the histograms' cache lines. Readers see the lanes summed,
// which is exact.
type Spans struct {
	epoch time.Time
	hists [NumPhases]*Histogram
	lane  int
	// lanes holds the views of every lane; they share epoch and hists.
	lanes *[Lanes]Spans
}

// NewSpans registers the span namespace on r. Bounds double from 256 ns to
// ~2.1 s, covering sub-µs equalise slices through whole-transfer rounds.
// The returned Spans records into lane 0.
func NewSpans(r *Registry) *Spans {
	lanes := new([Lanes]Spans)
	// One nanosecond in the past, so that no live stamp is zero.
	epoch := time.Now().Add(-time.Nanosecond)
	var hists [NumPhases]*Histogram
	for p := Phase(0); p < NumPhases; p++ {
		hists[p] = r.histogram(SpanName(p), Exp2Bounds(256, 24), Lanes, Volatile)
	}
	for i := range lanes {
		lanes[i] = Spans{epoch: epoch, hists: hists, lane: i, lanes: lanes}
	}
	return &lanes[0]
}

// Lane returns the view of s that records into writer id's lane, id mod
// Lanes, for a trial or transfer to time itself with id as its trace ID
// (nil for a nil receiver).
func (s *Spans) Lane(id int) *Spans {
	if s == nil {
		return nil
	}
	return &s.lanes[id&(Lanes-1)]
}

// Start returns a stamp opening a span, or the zero Stamp when s is nil so
// the matching End is also a no-op.
func (s *Spans) Start() Stamp {
	if s == nil {
		return 0
	}
	return Stamp(time.Since(s.epoch))
}

// Lap records the nanoseconds since start under phase p and returns the
// stamp that closed the span, to open the next phase's span: a chain of
// Laps times contiguous regions with one clock read per boundary. A zero
// start (from a nil Start) and an out-of-range phase record nothing; a
// nil receiver returns the zero Stamp without reading the clock.
func (s *Spans) Lap(p Phase, start Stamp) Stamp {
	if s == nil {
		return 0
	}
	now := Stamp(time.Since(s.epoch))
	if start != 0 && p < NumPhases {
		s.hists[p].observe(s.lane, int64(now-start))
	}
	return now
}

// End records the nanoseconds since start under phase p, as Lap does.
func (s *Spans) End(p Phase, start Stamp) { s.Lap(p, start) }
