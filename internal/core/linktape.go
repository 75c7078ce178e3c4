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

// LinkTape is an append-only record of one world, round by round, shared
// by every System that replays that world: each round's link and its
// draws. Round r is the link after r+1 steps of channel.RoundStepS
// scatterer motion — the step every transfer and measurement loop takes
// before each query round — and the (r+1)th round of the world's fault
// and traffic streams. The tape owns a private build of the world, which
// no System touches: the first reader to reach round r advances that
// build, evaluates the round's link and draws its faults and traffic
// through the hooks under the tape's lock, and every later reader copies
// the stored round. Each entry is a pure function of the world's seeds and
// the round, so which reader records it never changes a result.
//
// A System with a tape (System.Link) takes its link and its draws from the
// tape rather than from its own environment and streams, which it then
// never needs advanced; it counts and traces the draws as its own. The
// private world counts nothing, and evaluates the link in its own scratch.
// A LinkTape is safe for concurrent use. Release ends it and hands its
// world and chunks to the next ones built.
type LinkTape struct {
	mu     sync.Mutex
	build  func() (*System, *channel.Environment, error)
	world  *System              // the private build; nil until the first read
	env    *channel.Environment // its environment
	geom   linkGeom
	err    error // a failed build or evaluation, returned to every reader
	chunks []*[tapeChunk]worldRound
	n      int // rounds recorded
}

// NewLinkTape returns an empty tape over the world build constructs. The
// build runs once, on the first read; it must construct the same world,
// from the same seeds, as the systems that read the tape — its
// environment, its fault injector and its traffic generator alike.
func NewLinkTape(build func() (*System, *channel.Environment, error)) *LinkTape {
	return &LinkTape{build: build}
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
	if t.world == nil && t.err == nil {
		t.open()
	}
	if t.err != nil {
		return w, 0, 0, t.err
	}
	if err := t.refuse(s, g); err != nil {
		return w, 0, 0, err
	}
	ws := t.world
	dataLen, total := ws.Spec.DataLen, ws.Spec.TriggerLen+ws.Spec.DataLen
	for t.n <= r {
		t.env.Advance(channel.RoundStepS)
		next, _, p, err := ws.link.eval(t.env, &t.geom, nil, 0)
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
		t.chunks[t.n/tapeChunk][t.n%tapeChunk] = worldRound{next, drawRound(ws.Faults, ws.Traffic, dataLen, total)}
		t.n++
		phasors += p
		evals++
	}
	return t.chunks[r/tapeChunk][r%tapeChunk], phasors, evals, nil
}

// Release ends the tape once no reader will read it again: its private
// world and environment are released (System.Release,
// channel.Environment.Release) and its chunks go to the next tapes
// recorded. A later read returns an error. A tape that is never released
// is garbage-collected as before.
func (t *LinkTape) Release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.world != nil {
		t.world.Release()
		t.env.Release()
	}
	for _, c := range t.chunks {
		tapeChunks.Put(c)
	}
	t.world, t.env, t.chunks, t.err = nil, nil, nil, errTapeReleased
}

// refuse returns an error when reader s, with link geometry g, is not of
// the tape's world: its link, its query's subframe counts, or the profile
// (or the presence) of its fault injector or traffic generator differ.
func (t *LinkTape) refuse(s *System, g *linkGeom) error {
	ws := t.world
	switch {
	case *g != t.geom:
		return fmt.Errorf("core: the system's link (MCS, positions or tag coefficients) differs from its tape's")
	case s.Spec.DataLen != ws.Spec.DataLen || s.Spec.TriggerLen != ws.Spec.TriggerLen:
		return fmt.Errorf("core: the system's query (%d+%d subframes) differs from its tape's (%d+%d)",
			s.Spec.TriggerLen, s.Spec.DataLen, ws.Spec.TriggerLen, ws.Spec.DataLen)
	case (s.Faults == nil) != (ws.Faults == nil) || s.Faults != nil && s.Faults.Profile != ws.Faults.Profile:
		return fmt.Errorf("core: the system's fault profile differs from its tape's")
	case (s.Traffic == nil) != (ws.Traffic == nil) || s.Traffic != nil && !s.Traffic.Profile().Equal(ws.Traffic.Profile()):
		return fmt.Errorf("core: the system's traffic profile differs from its tape's")
	}
	return nil
}

// open builds the tape's private world and takes its link geometry.
func (t *LinkTape) open() {
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
		return
	}
	t.world, t.env = sys, env
	t.build = nil
}
