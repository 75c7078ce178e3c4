package core

import (
	"math"
	"slices"

	"witag/internal/channel"
	"witag/internal/phy"
	"witag/internal/tag"
)

// Per-round reuse in QueryRound (DESIGN.md §17, stage 3). Each cache below
// holds a value computed by exactly the code it replaces, keyed on every
// input that code reads, so reusing it is byte-identical to recomputing.

// successMemo memoises phy.SuccessProbAtBER by (BER, bits) for one round.
// The round's decode table asks it once per distinct split the round
// meets, so two splits that share a segment — or a clean and a dirty
// segment of equal size when the two BERs are equal — pay for it once.
// How many distinct pairs a round asks for depends on the world: about 5
// per round on Figures 5 and 6, the coding sweep, robustness and the
// ablations, where a crystal clock gives every corrupted subframe the
// same coverage, but about 32 on §7's power table, where drifting ring
// oscillators give most corrupted subframes a coverage of their own. A
// lookup therefore costs the same in both: the memo is an open-addressing
// table hashed on the bit count, kept at most half full, whose entries
// carry the round they were made in, so reset empties it in O(1).
type successMemo struct {
	slots []successEntry // len is a power of two, 0 or ≥ 2·n
	round uint32         // stamp of this round's entries; never 0 once used
	n     int            // entries made this round
}

type successEntry struct {
	round uint32
	bits  int
	ber   float64
	p     float64
}

// reset starts a new round, orphaning every entry of the last one.
func (m *successMemo) reset() {
	m.n = 0
	m.round++
	if m.round == 0 { // wrapped: an old stamp could match again
		clear(m.slots)
		m.round = 1
	}
}

// evals returns how many SuccessProbAtBER evaluations the round has paid
// for: one per distinct (BER, bits) pair.
func (m *successMemo) evals() int { return m.n }

// slot returns the index bits hashes to (Fibonacci hashing).
func (m *successMemo) slot(bits int) int {
	return int(uint64(bits)*0x9E3779B97F4A7C15>>40) & (len(m.slots) - 1)
}

// prob returns phy.SuccessProbAtBER(ber, bits), evaluating it only on the
// first request for the pair this round.
func (m *successMemo) prob(ber float64, bits int) float64 {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	i := m.slot(bits)
	for ; m.slots[i].round == m.round; i = (i + 1) & (len(m.slots) - 1) {
		if e := &m.slots[i]; e.bits == bits && e.ber == ber {
			return e.p
		}
	}
	p := phy.SuccessProbAtBER(ber, bits)
	m.slots[i] = successEntry{round: m.round, bits: bits, ber: ber, p: p}
	m.n++
	return p
}

// grow doubles the table (to 16 slots at first) and moves this round's
// entries into it.
func (m *successMemo) grow() {
	if m.round == 0 { // never reset: stamp 0 would match the empty slots
		m.round = 1
	}
	old := m.slots
	m.slots = make([]successEntry, max(16, 2*len(old)))
	for _, e := range old {
		if e.round != m.round {
			continue
		}
		i := m.slot(e.bits)
		for m.slots[i].round == m.round {
			i = (i + 1) & (len(m.slots) - 1)
		}
		m.slots[i] = e
	}
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

// triggerCache holds the tag's trigger detection probability for the
// geometry, link budget, detector and trigger shape it was computed for.
// The zero value never matches: a detectable trigger measures ≥ 1 tick.
type triggerCache struct {
	client, tagPos                       channel.Point
	freqHz, pathLossExp, txDbm, noiseDbm float64
	noiseFigure                          float64
	walls                                []channel.Wall // private copy
	triggerLen, ticks                    int
	p                                    float64
}

// matches reports whether the cached probability was computed for s's
// current inputs and ticks.
func (c *triggerCache) matches(s *System, ticks int) bool {
	e := s.Env
	return c.ticks == ticks && c.triggerLen == s.Spec.TriggerLen &&
		c.client == s.ClientPos && c.tagPos == s.TagPos &&
		c.freqHz == e.FreqHz && c.pathLossExp == e.PathLossExp &&
		c.txDbm == e.TxPowerDbm && c.noiseDbm == e.NoiseFloorDbm &&
		c.noiseFigure == s.DetectorNoiseFigure &&
		slices.Equal(c.walls, e.Walls)
}

// detectionProb returns the probability the tag detects the trigger when
// it measures ticks per trigger subframe, recomputing it only when an
// input has changed since it was cached.
func (s *System) detectionProb(ticks int) (float64, error) {
	c := &s.trig
	if c.matches(s, ticks) {
		return c.p, nil
	}
	e := s.Env
	// Envelope amplitudes at the tag, in √W.
	aPath, err := channel.FriisAmplitude(s.ClientPos.Dist(s.TagPos), e.FreqHz, e.PathLossExp)
	if err != nil {
		return 0, err
	}
	aPath *= channel.DbToAmplitude(-channel.PathAttenuationDb(e.Walls, s.ClientPos, s.TagPos))
	txW, noiseW := s.watts.get(e.TxPowerDbm, e.NoiseFloorDbm)
	sqrtPtx := math.Sqrt(txW)
	hi := sqrtPtx * aPath * EnvelopeAmplitudeFor(TriggerHighByte)
	lo := sqrtPtx * aPath * EnvelopeAmplitudeFor(TriggerLowByte)
	thr := (hi + lo) / 2 // self-biased comparator
	noiseStd := math.Sqrt(noiseW) * s.DetectorNoiseFigure
	p, err := tag.DetectionProbability(hi, lo, thr, noiseStd, ticks, s.Spec.TriggerLen)
	if err != nil {
		return 0, err
	}
	*c = triggerCache{
		client: s.ClientPos, tagPos: s.TagPos,
		freqHz: e.FreqHz, pathLossExp: e.PathLossExp, txDbm: e.TxPowerDbm, noiseDbm: e.NoiseFloorDbm,
		noiseFigure: s.DetectorNoiseFigure, walls: append(c.walls[:0], e.Walls...),
		triggerLen: s.Spec.TriggerLen, ticks: ticks, p: p,
	}
	return p, nil
}
