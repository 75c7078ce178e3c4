package tag

import (
	"fmt"
	"math"
)

// The tag's receive path is an envelope detector followed by a comparator
// (§7, "Query Packet Detection"): it cannot decode WiFi, but it can see
// whether the instantaneous RF envelope is above or below a threshold.
// Query packets open with trigger subframes whose payloads are chosen to
// produce alternating high/low envelope levels; the tag recognises that
// signature and — because the trigger subframes are the same length as the
// data subframes — learns the subframe duration at the same time.

// Detector is the trigger-pattern matcher's configuration; the query
// round models its outcome with DetectionProbability.
type Detector struct {
	// Threshold separates the comparator's high/low decisions.
	Threshold float64
	// Pattern is the expected high/low sequence, one entry per trigger
	// subframe (e.g. high, low, high, low).
	Pattern []bool
}

// NewDetector returns a detector for the default 4-subframe alternating
// trigger with the given comparator threshold.
func NewDetector(threshold float64) *Detector {
	return &Detector{
		Threshold: threshold,
		Pattern:   []bool{true, false, true, false},
	}
}

// QueryTiming is what detection yields: when the data subframes start and
// how long each subframe lasts, in tag clock ticks.
type QueryTiming struct {
	DataStartTick int
	SubframeTicks int
}

// DetectionProbability estimates how often the comparator resolves the
// trigger correctly: every tick of every trigger subframe must land on the
// right side of the threshold under Gaussian envelope noise. It reproduces
// the intuition that detection degrades as the tag moves away from the
// transmitter (lower envelope amplitude ⇒ smaller margin).
func DetectionProbability(highAmp, lowAmp, threshold, noiseStd float64, subframeTicks, patternLen int) (float64, error) {
	if subframeTicks <= 0 || patternLen <= 0 {
		return 0, fmt.Errorf("tag: invalid trigger geometry %d×%d", patternLen, subframeTicks)
	}
	if noiseStd <= 0 {
		if lowAmp < threshold && threshold <= highAmp {
			return 1, nil
		}
		return 0, nil
	}
	pHigh := gaussianTail((threshold - highAmp) / noiseStd) // P(high sample above threshold)
	pLow := 1 - gaussianTail((threshold-lowAmp)/noiseStd)   // P(low sample below threshold)
	perTickOK := (pHigh + pLow) / 2                         // pattern alternates evenly
	n := float64(subframeTicks * patternLen)
	return math.Pow(perTickOK, n), nil
}

// gaussianTail returns P(Z > x) for standard normal Z.
func gaussianTail(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}
