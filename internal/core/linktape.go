package core

import (
	"fmt"
	"math"
	"sync"

	"witag/internal/channel"
	"witag/internal/dot11"
	"witag/internal/obs"
	"witag/internal/phy"
)

// A round's link (DESIGN.md §17, stage 6) is everything QueryRound derives
// from the propagation channel: the client→AP SNR, the tag's distortion
// after pilot CPE correction, and the decode model's coded BER on either
// side of a tag flip. It depends on the environment's scatterers and on
// the link's geometry, never on a round's bits, faults or traffic, so the
// paired trials of one world (the coding sweep's ARQ, LT and RS transfers)
// see the same link in every round. A LinkTape evaluates it once for all
// of them.

// linkState is one round's link: 32 bytes, no pointers.
type linkState struct {
	snr        float64 // linear client→AP SNR
	distortion float64 // tag-induced distortion power after CPE correction
	cleanBER   float64 // coded BER at snr
	dirtyBER   float64 // coded BER at the effective SINR under distortion
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

func complexBits(c complex128) [2]uint64 {
	return [2]uint64{math.Float64bits(real(c)), math.Float64bits(imag(c))}
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
		rest: complexBits(rest), flip: complexBits(flip),
		excess: s.Tag.ExcessPathM(), mcs: s.Spec.MCS,
	}, nil
}

// linkScratch is what a link evaluation reuses from round to round.
type linkScratch struct {
	hRest, hFlip, ratios []complex128
	watts                wattsCache
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

// tapeChunk is how many rounds one chunk of a tape holds (8 KiB).
const tapeChunk = 256

// LinkTape is an append-only record of one world's link, round by round,
// shared by every System that replays that world. Round r is the link
// after r+1 steps of channel.RoundStepS scatterer motion — the step every
// transfer and measurement loop takes before each query round. The tape
// owns a private build of the world, which no System touches: the first
// reader to reach round r advances that build and evaluates the round
// under the tape's lock, and every later reader copies the stored state.
// Each entry is a pure function of the world's environment seed and the
// round, so which reader computes it never changes a result.
//
// A System with a tape (System.Link) takes its link from the tape rather
// than from its own environment, which it then never needs advanced. A
// LinkTape is safe for concurrent use.
type LinkTape struct {
	mu      sync.Mutex
	build   func() (*System, *channel.Environment, error)
	env     *channel.Environment // nil until the first read
	geom    linkGeom
	scratch linkScratch
	err     error // a failed build or evaluation, returned to every reader
	chunks  []*[tapeChunk]linkState
	n       int // rounds recorded
}

// NewLinkTape returns an empty tape over the world build constructs. The
// build runs once, on the first read; it must construct the same world,
// from the same seeds, as the systems that read the tape.
func NewLinkTape(build func() (*System, *channel.Environment, error)) *LinkTape {
	return &LinkTape{build: build}
}

// at returns round r's link for a reader whose geometry is g, recording
// every round up to r first if no reader has reached it yet. It also
// returns the phasors and the link states it evaluated on this call, so
// the reader's work counters count each state exactly once. A reader
// whose geometry differs from the tape's gets an error, never another
// world's link.
func (t *LinkTape) at(r int, g *linkGeom) (st linkState, phasors int64, evals int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.env == nil && t.err == nil {
		t.open()
	}
	if t.err != nil {
		return st, 0, 0, t.err
	}
	if *g != t.geom {
		return st, 0, 0, fmt.Errorf("core: the system's link (MCS, positions or tag coefficients) differs from its tape's")
	}
	for t.n <= r {
		t.env.Advance(channel.RoundStepS)
		next, _, p, err := t.scratch.eval(t.env, &t.geom, nil, 0)
		if err != nil {
			t.err = err
			return st, phasors, evals, err
		}
		if t.n%tapeChunk == 0 {
			t.chunks = append(t.chunks, new([tapeChunk]linkState))
		}
		t.chunks[t.n/tapeChunk][t.n%tapeChunk] = next
		t.n++
		phasors += p
		evals++
	}
	return t.chunks[r/tapeChunk][r%tapeChunk], phasors, evals, nil
}

// open builds the tape's private world and takes its link geometry.
func (t *LinkTape) open() {
	sys, env, err := t.build()
	if err == nil && (sys == nil || env == nil) {
		err = fmt.Errorf("core: link tape build returned no world")
	}
	if err == nil {
		t.geom, err = sys.geom()
	}
	if err != nil {
		t.err = fmt.Errorf("core: link tape build: %w", err)
		return
	}
	t.env = env
	t.build = nil
}
