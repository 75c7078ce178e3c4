package core

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"math/rand"
	"sync"
	"time"

	"witag/internal/channel"
	"witag/internal/crypto80211"
	"witag/internal/dot11"
	"witag/internal/fault"
	"witag/internal/mac"
	"witag/internal/obs"
	"witag/internal/phy"
	"witag/internal/stats"
	"witag/internal/tag"
	"witag/internal/traffic"
)

// System wires the whole WiTAG deployment together: a client (querier), an
// unmodified AP, a tag somewhere between them, and the propagation
// environment. QueryRound runs one complete §4 exchange at the analytic
// PHY level; the bit-true path lives in the phy package's tests and the
// quickstart example.
type System struct {
	Env       *channel.Environment
	ClientPos channel.Point
	APPos     channel.Point
	Tag       *tag.Tag
	TagPos    channel.Point

	Spec       QuerySpec
	Scheduler  *mac.AMPDUScheduler
	Contender  *mac.Contender
	Cipher     crypto80211.Cipher // nil for an open network; set by SetCipher
	TempC      float64
	BARateMbps float64
	// BusyProb is the per-slot probability other traffic occupies the
	// channel during backoff.
	BusyProb float64
	// DetectorNoiseFigure scales the envelope detector's equivalent
	// amplitude noise above the thermal floor (diode detectors are noisy).
	DetectorNoiseFigure float64
	// AmbientLossProb is the per-subframe probability of loss from causes
	// outside the model (co-channel interference, hidden terminals,
	// microwave ovens). §4.1 notes WiFi never reaches a zero error rate;
	// this is that floor, and it is what puts the ≈0.01 BER floor under
	// Figure 5.
	AmbientLossProb float64
	// Faults, when non-nil, replaces the i.i.d. AmbientLossProb floor
	// with the injector's Gilbert–Elliott burst process and adds
	// trigger-miss, block-ACK-loss and tag-brownout events. QueryRound
	// consumes the injector's hooks in a fixed order (see package fault)
	// so the fault stream is reproducible from the injector's seed alone.
	Faults *fault.Injector
	// Traffic, when non-nil, overlays an ambient-load collision mask on
	// every round: subframes that collide with another station's A-MPDU
	// burst are erased at the AP. The generator draws from its own seeded
	// stream in a fixed per-round order (see package traffic), so
	// attaching it never perturbs the fault or channel streams. It
	// composes with Faults — a subframe is lost if either says so.
	Traffic *traffic.Generator
	// Link, when non-nil, is the tape of this system's world: QueryRound
	// takes each round's link (SNR, distortion, coded BERs) and its fault
	// verdicts and ambient mask from it rather than evaluating Env and
	// drawing from Faults and Traffic, and counts the tape's draws as it
	// counts its own. The caller no longer advances Env between rounds —
	// the tape advances the world's environment. LinkTape.Reader sets it,
	// on a system that borrows its Env, Faults and Traffic from the tape,
	// which releases them; a system whose MCS, positions, tag
	// coefficients or subframe counts differ from the tape's gets an
	// error. Nil evaluates the link over Env and draws from Faults and
	// Traffic every round.
	Link *LinkTape
	// Obs, when non-nil, receives per-round metrics and trace events.
	// Instrumentation is passive: it never draws from an RNG and never
	// branches back into the simulation, so attaching it cannot change a
	// round's outcome (the determinism contract, DESIGN.md §10).
	Obs *obs.Observer
	// TraceID labels this deployment's trace events (the trial index in
	// Monte-Carlo campaigns).
	TraceID int
	// TraceLabels is the deployment's stats.SubSeed label path (e.g.
	// "fig5/d=3/run=2"), stamped into every trace event so a forensic
	// replay can rebuild the exact seed tree for this one trial.
	TraceLabels string
	// Spans is the view of Obs's phase timers that records into the
	// system's lane, set by Instrument; nil when detached. QueryRound,
	// Advance and the transfer loops over the system record into it.
	Spans *obs.Spans

	// Injected tallies the fault events the system's rounds met, whether
	// Faults drew them or Link recorded them, for diagnostics and
	// experiment tables. It stays zero without Faults.
	Injected struct {
		SubframesLost, TriggerMisses, BALosses, Brownouts int
	}

	rng      *rand.Rand
	roundSeq int
	// stepEnd is the stamp Advance closed its span with, where the next
	// round's encode span opens; zero when no step is pending.
	stepEnd obs.Stamp

	// The world's caches and its scratch, pooled between worlds
	// (Release).
	*systemScratch
	// linkRound is the next round a taped system reads from Link.
	linkRound int
	// tapeLayers marks Env, Faults and Traffic as Link's, borrowed from
	// the tape that owns and releases them (LinkTape.Reader).
	tapeLayers bool
}

// systemScratch is what a System reuses from round to round and what
// Release hands, emptied, to the next System built.
type systemScratch struct {
	// The trigger detection cache, revalidated against its inputs every
	// round, and the decode tables of the last two plans and window
	// geometries, most recent first (decodetable.go).
	trig   triggerCache
	tables [2]*decodeTable

	// plan caches the round's spec-only work; QueryRound revalidates it
	// against Spec and the cipher overhead every round.
	plan queryPlan
	// Per-round scratch, reused across rounds. RoundResult never aliases
	// it. link also caches the link budget in watts, for the link and for
	// detectionProb; cov holds the tag's window layout the decode tables
	// are built from.
	link linkScratch
	cov  tag.CoverageBuffers
	// sizes is the storage NewSystem shapes the query's payload sizes in.
	sizes []int
}

// systemScratches holds the scratch of released systems.
var systemScratches sync.Pool

// newSystemScratch returns a released system's scratch, or a new one.
func newSystemScratch() *systemScratch {
	if c, _ := systemScratches.Get().(*systemScratch); c != nil {
		return c
	}
	return new(systemScratch)
}

// empty marks every cache in c empty, keeping its storage, so the next
// world computes everything afresh and counts the same work.
func (c *systemScratch) empty() {
	c.trig = triggerCache{walls: c.trig.walls[:0]}
	for _, t := range c.tables {
		if t != nil {
			t.empty()
		}
	}
	c.plan.ok = false
	c.link.watts = wattsCache{}
	c.cov.Reset()
}

// DefaultQuerySpec returns the paper-flavoured query: 4 trigger subframes
// + 60 data subframes at QPSK 3/4 over 20 MHz.
func DefaultQuerySpec() QuerySpec {
	mcs, _ := dot11.HTMCS(2)
	return QuerySpec{
		TriggerLen: 4,
		DataLen:    60,
		MCS:        mcs,
		Width:      dot11.Width20,
		GI:         dot11.LongGI,
	}
}

// DefaultBARateMbps is the legacy OFDM rate a new System's AP sends its
// block ACKs at.
const DefaultBARateMbps = 24

// NewSystem builds a ready-to-run deployment. tagGain is the tag's
// effective reflection gain (see DESIGN.md's calibration note).
func NewSystem(env *channel.Environment, client, ap, tagPos channel.Point, tagGain float64, seed int64) (*System, error) {
	rng := stats.NewRNG(seed)
	clientAddr := dot11.MACAddr{0x02, 0, 0, 0, 0, 0x10}
	apAddr := dot11.MACAddr{0x02, 0, 0, 0, 0, 0x01}
	sched, err := mac.NewAMPDUScheduler(clientAddr, apAddr, apAddr, 0)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Env:                 env,
		ClientPos:           client,
		APPos:               ap,
		Tag:                 tag.New(tagGain, tag.NewCrystal50kHz(stats.Split(rng))),
		TagPos:              tagPos,
		Spec:                DefaultQuerySpec(),
		Scheduler:           sched,
		Contender:           mac.NewContender(stats.Split(rng)),
		TempC:               25,
		BARateMbps:          DefaultBARateMbps,
		DetectorNoiseFigure: 10,
		AmbientLossProb:     0.01,
		rng:                 rng,
		systemScratch:       newSystemScratch(),
	}
	// The world's first shaping writes its sizes into the scratch. Every
	// later one allocates, so a spec copied from the world never changes
	// under its holder while the world lives.
	if err := sys.reshape(sys.sizes); err != nil {
		return nil, err
	}
	sys.sizes = sys.Spec.PayloadSizes
	return sys, nil
}

// Release ends the world s: its own stream and those of its tag clock,
// contender, Faults and Traffic are released (stats.Release), and its
// scratch goes, emptied, to the next System built. It does not release
// Env, which has a Release of its own, nor Faults and Traffic borrowed
// from a tape (LinkTape.Reader), which the tape releases. s must not be
// used again: a round on it panics. A System that is never released is
// garbage-collected as before.
func (s *System) Release() {
	stats.Release(s.rng)
	s.Tag.Clock.Release()
	s.Contender.Release()
	if s.Faults != nil && !s.tapeLayers {
		s.Faults.Release()
	}
	if s.Traffic != nil && !s.tapeLayers {
		s.Traffic.Release()
	}
	if c := s.systemScratch; c != nil {
		c.empty()
		systemScratches.Put(c)
		s.systemScratch = nil
	}
}

// Instrument attaches observer o and the trace identity (id, labels) to
// the system, so every event the deployment emits names the trial that
// produced it, and takes o's phase timers in the system's lane. It is the
// one place instrumentation attaches: the system counts and traces its
// fault and traffic draws itself, and times its world's steps (Advance).
// o may be nil (instrumentation off).
func (s *System) Instrument(o *obs.Observer, id int, labels string) {
	s.Obs, s.TraceID, s.TraceLabels, s.Spans, s.stepEnd = o, id, labels, nil, 0
	if o != nil {
		s.Spans = o.Spans.Lane(id)
	}
}

// Advance steps env through channel.RoundStepS of scatterer motion — the
// step every measurement and transfer loop takes right before each query
// round — and times it in the channel phase. The next QueryRound opens
// its encode span where this one closed, so the caller's work between
// the two, drawing the bits the tag sends, is timed as the round's
// encode.
func (s *System) Advance(env *channel.Environment) {
	sp := s.Spans.Start()
	env.Advance(channel.RoundStepS)
	s.stepEnd = s.Spans.Lap(obs.PhaseChannel, sp)
}

// Reshape re-runs query shaping for the current cipher and spec, using the
// smallest per-subframe tick count that fits the MPDU overhead
// (ShapeMinTicks). Call it after changing Spec; SetCipher calls it. The
// querier knows the tag's *nominal* 50 kHz clock, not its actual
// temperature-dependent frequency — that residual is the tag's problem,
// which its measured-ticks replay cancels to first order. Note the physical cost of encryption: CCMP's 16-byte
// per-MPDU expansion can push the minimum subframe past one tick, halving
// the tag's data rate.
func (s *System) Reshape() error { return s.reshape(nil) }

// reshape is Reshape writing the sizes into sizes' storage when it has
// room.
func (s *System) reshape(sizes []int) error {
	tick := time.Duration(float64(time.Second) / s.Tag.Clock.NominalHz)
	return s.Spec.shapeMinTicks(sizes, tick, s.cipherOverhead())
}

// SetCipher makes c the link cipher, nil for an open network, both for
// the MPDUs the scheduler seals and for the query's shape, and reshapes
// the query for c's per-MPDU overhead.
func (s *System) SetCipher(c crypto80211.Cipher) error {
	s.Cipher, s.Scheduler.Cipher = c, c
	return s.Reshape()
}

func (s *System) cipherOverhead() int {
	if s.Cipher == nil {
		return 0
	}
	return s.Cipher.Overhead()
}

// RoundResult reports one query round.
type RoundResult struct {
	TxBits    []byte // bits the tag attempted to send
	RxBits    []byte // bits the client read from the block ACK; empty when BALost
	Detected  bool   // did the tag see the trigger?
	BitErrors int
	Airtime   time.Duration
	// BALost reports an injected block-ACK loss: the round went on the
	// air (Airtime is charged) but the client read nothing, so every tag
	// bit is unknown and counted as an error.
	BALost bool
	// Diagnostics
	SNRDb float64 // client→AP link SNR
}

// BER returns the round's bit error rate.
func (r *RoundResult) BER() float64 {
	if len(r.TxBits) == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(len(r.TxBits))
}

// QueryRound runs one §4 exchange: the client transmits a query A-MPDU,
// the tag modulates it, the AP block-ACKs, the client reads tag bits from
// the bitmap. bits must have length ≤ Spec.DataLen; missing bits are
// padded with 1 (tag idle). The result is fresh and owns its bits.
func (s *System) QueryRound(bits []byte) (*RoundResult, error) {
	res := new(RoundResult)
	if err := s.QueryRoundInto(bits, res); err != nil {
		return nil, err
	}
	return res, nil
}

// QueryRoundInto runs QueryRound's exchange, with exactly its draws, into
// res, overwriting every field. It reuses the storage of res.TxBits and
// res.RxBits, so a caller that keeps a round's bits past the next round
// into the same res must copy them (DESIGN.md §17, stage 10). RxBits is
// left empty when the block ACK is lost. On error *res is unspecified.
func (s *System) QueryRoundInto(bits []byte, res *RoundResult) error {
	// Phase-attribution spans (DESIGN.md §14). The round is carved into
	// contiguous, non-overlapping regions so phase totals sum to ~the whole
	// round: encode → channel → equalise (live links only) → viterbi →
	// crc. Spans are passive wall-clock reads into volatile histograms — no
	// RNG draws, no branches into the simulation — and error paths simply
	// drop the open span (the trial aborts anyway). After Advance, encode
	// opens where the world step closed (see Advance).
	spans := s.Spans
	sp := s.stepEnd
	if s.stepEnd = 0; sp == 0 {
		sp = spans.Start()
	}
	// --- Client side: "transmit" the query. Only its shape matters to the
	// round — airtimes and sizes — so the aggregate is planned once per
	// spec, never built. Planning validates the spec.
	plan, err := s.queryPlan()
	if err != nil {
		return err
	}
	trigLen, dataLen := s.Spec.TriggerLen, s.Spec.DataLen
	total := trigLen + dataLen
	if len(bits) > dataLen {
		return fmt.Errorf("core: %d bits exceed the query's %d data subframes", len(bits), dataLen)
	}
	txBits := resize(res.TxBits, dataLen)
	var txMask uint64 // bit j: txBits[j]
	for i := range txBits {
		txBits[i] = 1
		if i < len(bits) {
			txBits[i] = bits[i] & 1
		}
		txMask |= uint64(txBits[i]) << i
	}
	sp = spans.Lap(obs.PhaseEncode, sp)

	// --- Tag side: trigger detection. The tag's run-length measurement
	// spans all trigger subframes, so its per-subframe estimate is the
	// trigger mean — which averages out the shaper's size dither.
	detected, timing, err := s.detectTrigger(plan.trigMean)
	if err != nil {
		return err
	}

	// --- The world's round, read in this one place: its link (SNR,
	// distortion and the two coded BERs, the only SINRs the subframes see)
	// and its fault and traffic draws, which never depend on the round's
	// outcome. A taped system reads both from its world's tape; otherwise
	// they come from the system's own streams and environment, and eval
	// closes the channel and equalise regions. The draws are counted here.
	g, err := s.geom()
	if err != nil {
		return err
	}
	var w worldRound
	var phasors int64
	linkEvals := 1
	if s.Link != nil {
		if w, phasors, linkEvals, err = s.Link.at(s.linkRound, s, &g); err != nil {
			return err
		}
		s.linkRound++
		sp = spans.Lap(obs.PhaseChannel, sp)
	} else {
		w.draws = drawRound(s.Faults, s.Traffic, dataLen, total)
		if w.link, sp, phasors, err = s.link.eval(s.Env, &g, spans, sp); err != nil {
			return err
		}
	}
	link, draws := &w.link, &w.draws
	draws.count(s)
	if draws.flags&drawTrigMiss != 0 {
		detected = false
	}

	// --- Which clean/corrupted split each subframe's bits take: the data
	// subframes under the windows of the tag's flips when it detected the
	// trigger, every other subframe all clean. A browned-out switch
	// freezes in its rest state: the window's subframes go uncorrupted and
	// read as idle 1s at the client.
	tab, err := s.tableFor(plan, detected, timing)
	if err != nil {
		return err
	}
	var splits [dot11.MaxSubframes]uint16
	tab.roundSplits(splits[:total], txBits, detected, int(draws.brownStart), int(draws.brownLen))

	// --- AP side: each subframe's FCS verdict, kept as the block-ACK
	// bitmap itself — bit i set when subframe i decoded. The i.i.d.
	// ambient floor draws only after a successful decode and only without
	// Faults, whose burst losses replace it (draws.lost is 0 without
	// Faults); the burst and ambient-load masks then erase subframes.
	tab.begin()
	var ok uint64
	for i := range total {
		if stats.Bernoulli(s.rng, tab.prob(splits[i], link.cleanBER, link.dirtyBER)) &&
			(s.Faults != nil || !stats.Bernoulli(s.rng, s.AmbientLossProb)) {
			ok |= 1 << i
		}
	}
	ok &^= draws.lost | draws.ambient
	sp = spans.Lap(obs.PhaseViterbi, sp)

	// --- Client side: read tag bits out of the bitmap, past the trigger
	// subframes.
	baLost := draws.flags&drawBALost != 0
	*res = RoundResult{
		TxBits:   txBits,
		RxBits:   res.RxBits[:0],
		Detected: detected,
		BALost:   baLost,
		SNRDb:    phy.SNRToDb(link.snr),
	}
	if baLost {
		// The client never heard the block ACK: no bitmap, every tag bit
		// of the round unknown.
		res.BitErrors = len(txBits)
	} else {
		data := ok >> trigLen
		res.RxBits = resize(res.RxBits, dataLen)
		for j := range res.RxBits {
			res.RxBits[j] = byte(data >> j & 1)
		}
		res.BitErrors = mathbits.OnesCount64(data ^ txMask)
	}

	// --- Airtime accounting. ---
	access, err := s.Contender.AccessDelay(s.BusyProb, time.Millisecond)
	if err != nil {
		return err
	}
	baAir, err := dot11.BlockAckAirtime(s.BARateMbps)
	if err != nil {
		return err
	}
	res.Airtime = access + plan.ppdu + dot11.SIFS + baAir

	// Observability flush: passive counters and one trace event per round,
	// all derived from values already computed — zero RNG draws, zero
	// influence on the round's outcome. It is the round's accounting, so
	// the crc span times it too. The counters and the airtime histogram
	// take the lane Instrument took the spans in, the trace ID's, so
	// concurrent trials do not write one cache line every round.
	if o := s.Obs; o != nil {
		s.roundSeq++
		m, lane := o.Core, s.TraceID
		m.Rounds.AddLane(lane, 1)
		if detected {
			m.Detections.AddLane(lane, 1)
		} else {
			m.TriggerMisses.AddLane(lane, 1)
		}
		if baLost {
			m.BALosses.AddLane(lane, 1)
		}
		subOK := mathbits.OnesCount64(ok)
		m.SubframesOK.AddLane(lane, int64(subOK))
		m.SubframesLost.AddLane(lane, int64(total-subOK))
		m.Bits.AddLane(lane, int64(len(txBits)))
		m.BitErrors.AddLane(lane, int64(res.BitErrors))
		slots, busy := s.Contender.LastSlots()
		m.BackoffSlots.AddLane(lane, int64(slots))
		m.BusySlots.AddLane(lane, int64(busy))
		m.RoundAirtime.ObserveLane(lane, res.Airtime.Microseconds())
		m.DecodeModelEvals.AddLane(lane, int64(2*linkEvals))
		m.SuccessProbEvals.AddLane(lane, int64(tab.evals))
		m.ChannelPathEvals.AddLane(lane, phasors)
		if o.Trace != nil {
			o.Trace.Record(obs.Event{
				Kind:      "round",
				Trial:     s.TraceID,
				Labels:    s.TraceLabels,
				Round:     s.roundSeq,
				Detected:  detected,
				BALost:    baLost,
				Bits:      len(txBits),
				BitErrors: res.BitErrors,
				AirtimeUs: res.Airtime.Microseconds(),
				SNRmDb:    int64(math.Round(res.SNRDb * 1000)),
			})
		}
	}
	spans.End(obs.PhaseCRC, sp)
	return nil
}

// resize returns b at length n, reusing its storage when it has room.
func resize(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// ProtocolGrid is the WiTAG shaping contract: every query subframe lasts a
// whole multiple of this nominal duration (one tick of the reference
// 50 kHz tag clock). Tags snap their run-length measurements to this grid,
// which cancels the shaper's ±2-byte size dither regardless of how fine
// the tag's own clock is.
const ProtocolGrid = 20 * time.Microsecond

// detectTrigger models the envelope detector seeing the trigger subframes.
func (s *System) detectTrigger(subAir time.Duration) (bool, tag.QueryTiming, error) {
	ticks, err := s.Tag.Clock.TicksFor(subAir, s.TempC)
	if err != nil {
		return false, tag.QueryTiming{}, err
	}
	// Grid snapping: round the measurement to the nearest whole number of
	// protocol grid units, expressed in the tag's own (believed-nominal)
	// ticks. For the reference 50 kHz clock the grid is exactly one tick
	// and this is a no-op; for faster clocks it removes the dither bias.
	gridTicks := int(ProtocolGrid.Seconds()*s.Tag.Clock.NominalHz + 0.5)
	if gridTicks >= 1 && ticks >= gridTicks/2 {
		units := (ticks + gridTicks/2) / gridTicks
		if units < 1 {
			units = 1
		}
		ticks = units * gridTicks
	}
	if ticks < 1 {
		// Subframes shorter than a clock tick are undetectable and
		// untimeable: the tag never responds.
		return false, tag.QueryTiming{}, nil
	}
	p, err := s.detectionProb(ticks)
	if err != nil {
		return false, tag.QueryTiming{}, err
	}
	detected := stats.Bernoulli(s.rng, p)
	return detected, tag.QueryTiming{
		DataStartTick: ticks * s.Spec.TriggerLen,
		SubframeTicks: ticks,
	}, nil
}

// queryPlan returns the plan for the current Spec and cipher, recomputing
// it only when either has changed since the last round.
func (s *System) queryPlan() (*queryPlan, error) {
	if overhead := s.cipherOverhead(); !s.plan.matches(&s.Spec, overhead) {
		if err := s.plan.compute(s.Spec, overhead); err != nil {
			return nil, err
		}
	}
	return &s.plan, nil
}

// TagRateBps returns the steady-state tag data rate this system achieves:
// data bits per query divided by round airtime (excluding bit errors).
func (s *System) TagRateBps() (float64, error) {
	return s.Spec.TagRateBps(s.cipherOverhead(), s.BARateMbps)
}
