package core

import (
	"math"
	"slices"

	"witag/internal/channel"
	"witag/internal/tag"
)

// triggerCache holds the tag's trigger detection probability for the
// geometry, link budget, detector and trigger shape it was computed for
// (DESIGN.md §17, stage 3). It is keyed on every input the computation
// reads, so reusing it is byte-identical to recomputing. The zero value
// never matches: a detectable trigger measures ≥ 1 tick.
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
	txW, noiseW := s.link.watts.get(e.TxPowerDbm, e.NoiseFloorDbm)
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
