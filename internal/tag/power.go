package tag

import (
	"fmt"
	"math"
)

// Power budget model for §7's comparison. The dominant consumer in a
// backscatter tag is clock generation: oscillator power grows with the
// square of frequency. WiTAG's 50 kHz clock sits in the single-µW regime;
// the ≥20 MHz clocks that channel-shifting systems need cost three to four
// orders of magnitude more (crystal) or sacrifice stability (ring).

// OscillatorKind distinguishes the two §7 technologies.
type OscillatorKind int

const (
	// CrystalOscillator: accurate and temperature-stable, power ∝ f².
	CrystalOscillator OscillatorKind = iota
	// RingOscillator: tens of µW even at MHz, but drifts with temperature.
	RingOscillator
)

// String names the oscillator kind.
func (k OscillatorKind) String() string {
	if k == RingOscillator {
		return "ring"
	}
	return "crystal"
}

// OscillatorPowerW returns the oscillator supply power in watts at a
// frequency. Constants are fitted to the datasheet anchors §7 cites: a
// 50 kHz tuning-fork crystal draws ≈2 µW; a precision MHz-range crystal
// oscillator draws >1 mW; ring oscillators draw tens of µW in the tens of
// MHz.
func OscillatorPowerW(kind OscillatorKind, freqHz float64) (float64, error) {
	if freqHz <= 0 {
		return 0, fmt.Errorf("tag: non-positive frequency %v", freqHz)
	}
	switch kind {
	case CrystalOscillator:
		// P = k·f², anchored at 2 µW @ 50 kHz ⇒ k = 8e-16 W/Hz².
		return 8e-16 * freqHz * freqHz, nil
	case RingOscillator:
		// Rings are linear-ish in f: anchored at 30 µW @ 20 MHz.
		return 1.5e-12 * freqHz, nil
	default:
		return 0, fmt.Errorf("tag: unknown oscillator kind %d", int(kind))
	}
}

// Budget aggregates a tag's average power draw.
type Budget struct {
	Oscillator OscillatorKind
	ClockHz    float64
	// SwitchEnergyJ is the CMOS energy per switch transition (≈10 pJ for
	// the SKY13314's control line).
	SwitchEnergyJ float64
	// TogglesPerSecond is the average switching rate (one per tag bit 0,
	// twice: into and out of the flipped state).
	TogglesPerSecond float64
	// ComparatorW is the envelope detector + comparator standing draw.
	ComparatorW float64
	// LogicW is the sequencing logic (sleep-mode MCU or state machine).
	LogicW float64
}

// NewBudget returns §7's budget of a tag clocked by a kind oscillator at
// clockHz whose switch toggles togglesPerSecond times: the prototype's
// switch, a comparator in the hundreds of nW and minimal logic. WiTAG
// toggles about once per tag bit (half the bits are 0, two toggles each);
// a HitchHike/FreeRider-class channel shifter clocks at ≥20 MHz and
// toggles at that offset frequency to move the reflection one channel over.
func NewBudget(kind OscillatorKind, clockHz, togglesPerSecond float64) Budget {
	return Budget{
		Oscillator:       kind,
		ClockHz:          clockHz,
		SwitchEnergyJ:    10e-12,
		TogglesPerSecond: togglesPerSecond,
		ComparatorW:      300e-9,
		LogicW:           500e-9,
	}
}

// TotalW sums the budget's average power.
func (b Budget) TotalW() (float64, error) {
	osc, err := OscillatorPowerW(b.Oscillator, b.ClockHz)
	if err != nil {
		return 0, err
	}
	if b.SwitchEnergyJ < 0 || b.TogglesPerSecond < 0 || b.ComparatorW < 0 || b.LogicW < 0 {
		return 0, fmt.Errorf("tag: negative budget component")
	}
	return osc + b.SwitchEnergyJ*b.TogglesPerSecond + b.ComparatorW + b.LogicW, nil
}

// Harvester models ambient RF/light energy income.
type Harvester struct {
	// IncomeW is the sustained harvested power (ambient RF indoors is
	// ~1-10 µW; a small photodiode under office light ~10-100 µW).
	IncomeW float64
	// StorageJ is the reservoir capacitor's usable energy.
	StorageJ float64
}

// BatteryFreeFeasible reports whether the harvester sustains the budget
// indefinitely, and if not, how long the reservoir lasts.
func (h Harvester) BatteryFreeFeasible(b Budget) (bool, float64, error) {
	draw, err := b.TotalW()
	if err != nil {
		return false, 0, err
	}
	if h.IncomeW >= draw {
		return true, math.Inf(1), nil
	}
	if h.StorageJ <= 0 {
		return false, 0, nil
	}
	return false, h.StorageJ / (draw - h.IncomeW), nil
}
