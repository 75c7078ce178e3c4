package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"witag/internal/channel"
	"witag/internal/dot11"
	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/phy"
	"witag/internal/traffic"
)

// A round's link (DESIGN.md §17, stage 6) is everything QueryRound derives
// from the propagation channel: the client→AP SNR, the tag's distortion
// after pilot CPE correction, and the decode model's coded BER on either
// side of a tag flip. It depends on the environment's scatterers and on
// the link's geometry, never on a round's bits. A round's draws (stage 7)
// are its fault verdicts and its ambient-traffic mask; the fault injector
// and the traffic generator are seeded from the world alone, so they too
// never depend on a round's bits. The paired trials of one world (the
// coding sweep's ARQ, LT and RS transfers) therefore see the same link and
// the same draws in every round, and a LinkTape evaluates both once for
// all of them.

// linkState is one round's link: 32 bytes, no pointers.
type linkState struct {
	snr        float64 // linear client→AP SNR
	distortion float64 // tag-induced distortion power after CPE correction
	cleanBER   float64 // coded BER at snr
	dirtyBER   float64 // coded BER at the effective SINR under distortion
}

// roundDraws is one round's fault verdicts and ambient mask: every value
// QueryRound takes from the Faults and Traffic streams, and what the
// round's draws counted. 24 bytes, no pointers; a query has at most
// dot11.MaxSubframes = 64 subframes, so one word holds a mask.
type roundDraws struct {
	lost       uint64 // bit i: the burst interferer destroyed subframe i
	ambient    uint64 // bit i: an ambient burst overlapped subframe i
	bursts     int32  // ambient bursts placed
	brownStart uint8  // first data subframe of the brownout window
	brownLen   uint8  // its length; 0 when no brownout
	masked     uint8  // subframes the ambient bursts masked
	flags      uint8  // drawTrigMiss | drawBALost | drawSwitched
}

const (
	drawTrigMiss = 1 << iota // the trigger was erased at the tag
	drawBALost               // the block ACK never reached the client
	drawSwitched             // the ambient load chain changed state
)

// drawRound draws one round from in and g, either of which may be nil,
// over a query of total subframes, dataLen of them data. It calls the
// hooks in the order the fault package's contract fixes — TriggerMissed,
// BrownoutWindow, SubframeLost per subframe, BALost — and then RoundMask.
// It counts nothing: the system the round is for counts it (count).
func drawRound(in *fault.Injector, g *traffic.Generator, dataLen, total int) roundDraws {
	var d roundDraws
	if in != nil {
		if in.TriggerMissed() {
			d.flags |= drawTrigMiss
		}
		if start, length, active := in.BrownoutWindow(dataLen); active {
			d.brownStart, d.brownLen = uint8(start), uint8(length)
		}
		for i := range total {
			if in.SubframeLost() {
				d.lost |= 1 << i
			}
		}
		if in.BALost() {
			d.flags |= drawBALost
		}
	}
	if g != nil {
		mask, r := g.RoundMask(total)
		for i, hit := range mask {
			if hit {
				d.ambient |= 1 << i
			}
		}
		d.bursts, d.masked = int32(r.Bursts), uint8(r.Masked)
		if r.Switched {
			d.flags |= drawSwitched
		}
	}
	return d
}

// count records d as a round of s: in s.Injected and, when s is
// instrumented, in the fault.* and traffic.* counters, in s's lane as
// QueryRound counts, and the fault trace events, which follow the hooks'
// order (trigger miss, brownout, block-ACK loss). It is the one place a round's draws are counted, whether s drew
// them or read them from its tape. Subframe losses are counted but not
// traced: at one draw per subframe they would flood the bounded ring.
func (d *roundDraws) count(s *System) {
	o := s.Obs
	if s.Faults != nil {
		lost := bits.OnesCount64(d.lost)
		trig, ba := d.flags&drawTrigMiss != 0, d.flags&drawBALost != 0
		n := &s.Injected
		n.SubframesLost += lost
		if trig {
			n.TriggerMisses++
		}
		if d.brownLen > 0 {
			n.Brownouts++
		}
		if ba {
			n.BALosses++
		}
		if o != nil {
			m := o.Fault
			m.SubframesLost.AddLane(s.TraceID, int64(lost))
			ev := obs.Event{Kind: "fault", Trial: s.TraceID, Labels: s.TraceLabels}
			if trig {
				m.TriggerMisses.AddLane(s.TraceID, 1)
				ev.Outcome = "trigger_miss"
				o.Trace.Record(ev)
			}
			if d.brownLen > 0 {
				m.Brownouts.AddLane(s.TraceID, 1)
				ev.Outcome, ev.Offset, ev.Length = "brownout", int(d.brownStart), int(d.brownLen)
				o.Trace.Record(ev)
			}
			if ba {
				m.BALosses.AddLane(s.TraceID, 1)
				ev.Outcome, ev.Offset, ev.Length = "ba_loss", 0, 0
				o.Trace.Record(ev)
			}
		}
	}
	if s.Traffic != nil && o != nil {
		m := o.Traffic
		m.Rounds.AddLane(s.TraceID, 1)
		m.Bursts.AddLane(s.TraceID, int64(d.bursts))
		m.SubframesMask.AddLane(s.TraceID, int64(d.masked))
		if d.flags&drawSwitched != 0 {
			m.StateSwitches.AddLane(s.TraceID, 1)
		}
	}
}

// worldRound is one round of a world as its tape records it: 56 bytes,
// no pointers.
type worldRound struct {
	link  linkState
	draws roundDraws
}

// linkGeom is every input of a link evaluation the System supplies: the
// two endpoints, the tag's position, its reflection coefficient in each
// switch state (as raw bits, since +0 and −0 imaginary parts compare
// equal yet flip the phase), its excess path and the query's MCS.
type linkGeom struct {
	client, ap, tagPos channel.Point
	rest, flip         [2]uint64
	excess             float64
	mcs                dot11.MCS
}

func bitsComplex(b [2]uint64) complex128 {
	return complex(math.Float64frombits(b[0]), math.Float64frombits(b[1]))
}

// geom returns the system's link geometry this round: it sets the tag's
// switch to each state, as evaluating the channel always has.
func (s *System) geom() (linkGeom, error) {
	rest, err := s.Tag.ReflectionFor(false)
	if err != nil {
		return linkGeom{}, err
	}
	flip, err := s.Tag.ReflectionFor(true)
	if err != nil {
		return linkGeom{}, err
	}
	return linkGeom{
		client: s.ClientPos, ap: s.APPos, tagPos: s.TagPos,
		rest: channel.CoeffBits(rest), flip: channel.CoeffBits(flip),
		excess: s.Tag.ExcessPathM(), mcs: s.Spec.MCS,
	}, nil
}

// linkScratch is what a link evaluation reuses from round to round.
type linkScratch struct {
	hRest, hFlip, ratios []complex128
	watts                wattsCache
}

// wattsCache holds the transmit power and noise floor in watts for the
// dBm values they were converted from.
type wattsCache struct {
	ok              bool
	txDbm, noiseDbm float64
	txW, noiseW     float64
}

// get returns channel.DbmToWatts of txDbm and noiseDbm, converting again
// only when either differs from the cached key.
func (c *wattsCache) get(txDbm, noiseDbm float64) (txW, noiseW float64) {
	if !c.ok || c.txDbm != txDbm || c.noiseDbm != noiseDbm {
		c.txDbm, c.noiseDbm = txDbm, noiseDbm
		c.txW, c.noiseW = channel.DbmToWatts(txDbm), channel.DbmToWatts(noiseDbm)
		c.ok = true
	}
	return c.txW, c.noiseW
}

// eval evaluates the link of g over env's scatterers as they stand. With
// spans attached it closes the channel region after the channel pair and
// the equalise region after the distortion, and returns the open stamp,
// so the coded BERs fall in the region that follows: the decode model's.
// It also returns the phasors the channel pair evaluated.
func (b *linkScratch) eval(env *channel.Environment, g *linkGeom, spans *obs.Spans, sp obs.Stamp) (linkState, obs.Stamp, int64, error) {
	var st linkState
	phasors := env.PhasorEvals()
	var err error
	b.hRest, b.hFlip, err = env.ChannelPair(g.client, g.ap,
		&channel.TagReflection{Pos: g.tagPos, Coeff: bitsComplex(g.rest), ExcessPathM: g.excess},
		&channel.TagReflection{Pos: g.tagPos, Coeff: bitsComplex(g.flip), ExcessPathM: g.excess},
		b.hRest, b.hFlip)
	if err != nil {
		return st, sp, 0, err
	}
	phasors = env.PhasorEvals() - phasors
	txW, noiseW := b.watts.get(env.TxPowerDbm, env.NoiseFloorDbm)
	st.snr = channel.SNRFromWatts(txW, channel.MeanPower(b.hRest), noiseW)
	sp = spans.Lap(obs.PhaseChannel, sp)
	if cap(b.ratios) < len(b.hRest) {
		b.ratios = make([]complex128, len(b.hRest))
	}
	if st.distortion, err = phy.DistortionAfterCPEBuf(b.hFlip, b.hRest, b.ratios); err != nil {
		return st, sp, 0, err
	}
	dirtySINR := phy.EffectiveSINR(st.snr, st.distortion)
	sp = spans.Lap(obs.PhaseEqualise, sp)
	if st.cleanBER, err = phy.CodedBER(g.mcs, st.snr); err != nil {
		return st, sp, 0, err
	}
	if st.dirtyBER, err = phy.CodedBER(g.mcs, dirtySINR); err != nil {
		return st, sp, 0, err
	}
	return st, sp, phasors, nil
}

// tapeChunk is how many rounds one chunk of a tape holds (14 KiB).
const tapeChunk = 256

// tapeChunks holds the chunks of released tapes. A chunk's old rounds
// need no clearing: a tape reads only the rounds it has recorded.
var tapeChunks sync.Pool

// errTapeReleased is what a read of a released tape returns.
var errTapeReleased = errors.New("core: link tape read after its release")

// errTapeUnopened is what a read of a tape no Reader opened returns: its
// system did not come from Reader.
var errTapeUnopened = errors.New("core: link tape read by a system its Reader did not return")

// LinkTape is an append-only record of one world, round by round, shared
// by every System that replays that world: each round's link and its
// draws. Round r is the link after r+1 steps of channel.RoundStepS
// scatterer motion — the step every transfer and measurement loop takes
// before each query round — and the (r+1)th round of the world's fault
// and traffic streams.
//
// The world is built once. The tape runs its build on the first Reader
// call and takes the world's layers from it: its environment, fault
// injector and traffic generator, which the tape owns and releases, and
// the link geometry and subframe counts every reader is checked against. The built System goes to that
// first Reader call; every later reader is a System of its own (stream,
// tag clock, contender) over the tape's environment and layers. The first
// reader to reach round r advances the environment, evaluates the round's
// link and draws its faults and traffic through the hooks under the
// tape's lock, and every later reader copies the stored round. Each entry
// is a pure function of the world's seeds and the round, so which reader
// records it never changes a result.
//
// A System with a tape (System.Link, which only Reader sets) takes its
// link and its draws from the tape rather than evaluating the environment
// and drawing from the streams it borrows; it counts and traces the draws
// as its own. The tape counts nothing, and evaluates the link in its own
// scratch. A LinkTape is safe for concurrent use. Release ends it and hands its
// layers, scratch and chunks to the next ones built.
type LinkTape struct {
	mu    sync.Mutex
	build func() (*System, *channel.Environment, error)
	// The world's layers, taken from its build; nil until the tape opens.
	env     *channel.Environment
	faults  *fault.Injector
	traffic *traffic.Generator
	// What a reader must match: the world's link geometry and query shape.
	geom             linkGeom
	trigLen, dataLen int
	link             *linkScratch // the round evaluations' scratch
	err              error        // a failed build or evaluation, returned to every reader
	chunks           []*[tapeChunk]worldRound
	n                int // rounds recorded
}

// tapeLinks holds the link scratch of released tapes.
var tapeLinks sync.Pool

// NewLinkTape returns an empty tape over the world build constructs. The
// build runs once, on the first Reader call; its system is the tape's
// first reader, and its environment, fault injector and traffic generator
// are the tape's.
func NewLinkTape(build func() (*System, *channel.Environment, error)) *LinkTape {
	return &LinkTape{build: build}
}

// Reader returns a system of t's world that reads its rounds from t. The
// first call returns the world's build itself; every later one returns
// the system reader builds over the tape's environment, which must be the
// world's system — its positions, tag and seed — with no layers of its
// own: Reader attaches the tape's fault injector and traffic generator.
// Either way the system borrows its Env, Faults and Traffic from t: it
// never advances or draws them, and System.Release leaves them to the
// tape's Release. A failed build, or a released tape, returns the tape's
// error.
func (t *LinkTape) Reader(reader func(*channel.Environment) (*System, error)) (*System, error) {
	t.mu.Lock()
	var sys *System
	if t.env == nil && t.err == nil {
		sys = t.open()
	}
	env, faults, gen, err := t.env, t.faults, t.traffic, t.err
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if sys == nil {
		if sys, err = reader(env); err != nil {
			return nil, err
		}
		if sys.Env != env || sys.Faults != nil || sys.Traffic != nil {
			return nil, fmt.Errorf("core: a reader of a link tape brings its own environment, fault injector or traffic generator")
		}
		sys.Faults, sys.Traffic = faults, gen
	}
	sys.Link, sys.tapeLayers = t, true
	return sys, nil
}

// at returns round r of the world for reader s, whose link geometry is g,
// recording every round up to r first if no reader has reached it yet. It
// also returns the phasors and the link states it evaluated on this call,
// so the readers' work counters count each state exactly once. A reader
// whose world differs from the tape's gets an error, never another
// world's round.
func (t *LinkTape) at(r int, s *System, g *linkGeom) (w worldRound, phasors int64, evals int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return w, 0, 0, t.err
	}
	if t.env == nil {
		return w, 0, 0, errTapeUnopened
	}
	if err := t.refuse(s, g); err != nil {
		return w, 0, 0, err
	}
	for t.n <= r {
		t.env.Advance(channel.RoundStepS)
		next, _, p, err := t.link.eval(t.env, &t.geom, nil, 0)
		if err != nil {
			t.err = err
			return w, phasors, evals, err
		}
		if t.n%tapeChunk == 0 {
			c, _ := tapeChunks.Get().(*[tapeChunk]worldRound)
			if c == nil {
				c = new([tapeChunk]worldRound)
			}
			t.chunks = append(t.chunks, c)
		}
		t.chunks[t.n/tapeChunk][t.n%tapeChunk] = worldRound{next, drawRound(t.faults, t.traffic, t.dataLen, t.trigLen+t.dataLen)}
		t.n++
		phasors += p
		evals++
	}
	return t.chunks[r/tapeChunk][r%tapeChunk], phasors, evals, nil
}

// Release ends the tape once no reader will read it again: the world's
// environment, fault injector and traffic generator are released
// (channel.Environment.Release, fault.Injector.Release,
// traffic.Generator.Release), and its scratch and chunks go to the next
// tapes recorded. A later read returns an error. A tape that is never
// released is garbage-collected as before.
func (t *LinkTape) Release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.env != nil {
		t.env.Release()
		if t.faults != nil {
			t.faults.Release()
		}
		if t.traffic != nil {
			t.traffic.Release()
		}
		t.link.watts = wattsCache{}
		tapeLinks.Put(t.link)
	}
	for _, c := range t.chunks {
		tapeChunks.Put(c)
	}
	t.build, t.env, t.faults, t.traffic, t.link, t.chunks = nil, nil, nil, nil, nil, nil
	t.err = errTapeReleased
}

// refuse returns an error when reader s, with link geometry g, is not of
// the tape's world: its link or its query's subframe counts differ. Its
// fault injector and traffic generator are the tape's (Reader).
func (t *LinkTape) refuse(s *System, g *linkGeom) error {
	switch {
	case *g != t.geom:
		return fmt.Errorf("core: the system's link (MCS, positions or tag coefficients) differs from its tape's")
	case s.Spec.DataLen != t.dataLen || s.Spec.TriggerLen != t.trigLen:
		return fmt.Errorf("core: the system's query (%d+%d subframes) differs from its tape's (%d+%d)",
			s.Spec.TriggerLen, s.Spec.DataLen, t.trigLen, t.dataLen)
	}
	return nil
}

// open runs the world's build and takes its layers, link geometry and
// subframe counts, and returns the built system, whose Env, Faults and
// Traffic are now the tape's. A failed build sets the tape's error and
// returns nil.
func (t *LinkTape) open() *System {
	sys, env, err := t.build()
	if err == nil && (sys == nil || env == nil) {
		err = fmt.Errorf("core: link tape build returned no world")
	}
	if err == nil {
		err = sys.Spec.Validate()
	}
	if err == nil {
		t.geom, err = sys.geom()
	}
	if err != nil {
		t.err = fmt.Errorf("core: link tape build: %w", err)
		return nil
	}
	t.env, t.faults, t.traffic = env, sys.Faults, sys.Traffic
	t.trigLen, t.dataLen = sys.Spec.TriggerLen, sys.Spec.DataLen
	if t.link, _ = tapeLinks.Get().(*linkScratch); t.link == nil {
		t.link = new(linkScratch)
	}
	t.build = nil
	sys.tapeLayers = true
	return sys
}
