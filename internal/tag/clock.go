package tag

import (
	"fmt"
	"math/rand"
	"time"

	"witag/internal/stats"
)

// Clock models the tag's timebase. §7 of the paper is an argument about
// exactly this component: systems that must shift the backscatter signal
// 20 MHz away need a 20+ MHz oscillator — >1 mW for a crystal, or a
// tens-of-µW ring oscillator whose frequency wanders ~600 kHz per 5 °C.
// WiTAG only needs to *count subframe durations*, so a 50 kHz crystal at a
// few µW suffices.
type Clock struct {
	// NominalHz is the design frequency.
	NominalHz float64
	// DriftPPM is the static frequency error in parts per million
	// (crystal tolerance, ±20 ppm typical for a watch crystal).
	DriftPPM float64
	// JitterPPM is the cycle-to-cycle random jitter magnitude.
	JitterPPM float64
	// TempCoefPPMPerC is the frequency sensitivity to temperature; ring
	// oscillators are orders of magnitude worse than crystals here.
	TempCoefPPMPerC float64
	// NominalTempC is the calibration temperature.
	NominalTempC float64

	rng *rand.Rand
}

// NewCrystal50kHz returns the WiTAG tag clock: a 50 kHz tuning-fork
// crystal — ±20 ppm, essentially temperature-flat over indoor ranges
// (≈0.035 ppm/°C² parabolic; modelled as 0.5 ppm/°C linearised).
func NewCrystal50kHz(rng *rand.Rand) *Clock {
	return &Clock{
		NominalHz:       50_000,
		DriftPPM:        20,
		JitterPPM:       5,
		TempCoefPPMPerC: 0.5,
		NominalTempC:    25,
		rng:             rng,
	}
}

// NewRingOscillator returns the 20 MHz ring oscillator prior systems use:
// cheap and low-power but wildly temperature-sensitive — 600 kHz per 5 °C
// at 20 MHz is 6000 ppm/°C (the paper's footnote 4).
func NewRingOscillator(freqHz float64, rng *rand.Rand) *Clock {
	return &Clock{
		NominalHz:       freqHz,
		DriftPPM:        5000,
		JitterPPM:       500,
		TempCoefPPMPerC: 6000,
		NominalTempC:    25,
		rng:             rng,
	}
}

// EffectiveHz returns the actual oscillation frequency at a temperature.
func (c *Clock) EffectiveHz(tempC float64) float64 {
	ppm := c.DriftPPM + c.TempCoefPPMPerC*(tempC-c.NominalTempC)
	return c.NominalHz * (1 + ppm*1e-6)
}

// SecondsPerTick returns the exact tick period in seconds.
func (c *Clock) SecondsPerTick(tempC float64) float64 {
	hz := c.EffectiveHz(tempC)
	if hz <= 0 {
		return 0
	}
	return 1 / hz
}

// Release ends the clock's jitter stream (stats.Release): a later
// jittered TicksFor panics.
func (c *Clock) Release() { stats.Release(c.rng) }

// TicksFor returns how many whole ticks the tag counts during d, including
// random jitter. This quantisation (20 µs granularity at 50 kHz) is the
// tag's fundamental timing resolution for aligning corruption windows to
// subframes.
func (c *Clock) TicksFor(d time.Duration, tempC float64) (int, error) {
	if d < 0 {
		return 0, fmt.Errorf("tag: negative duration %v", d)
	}
	hz := c.EffectiveHz(tempC)
	if hz <= 0 {
		return 0, fmt.Errorf("tag: clock stopped at %v°C", tempC)
	}
	jitter := 0.0
	if c.rng != nil && c.JitterPPM > 0 {
		jitter = c.rng.NormFloat64() * c.JitterPPM * 1e-6
	}
	ticks := d.Seconds() * hz * (1 + jitter)
	return int(ticks + 0.5), nil
}
