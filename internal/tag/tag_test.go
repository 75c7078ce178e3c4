package tag

import (
	"math"
	"math/cmplx"
	"testing"
	"time"

	"witag/internal/stats"
)

func TestSwitchStates(t *testing.T) {
	s := NewAntennaSwitch(40)
	if s.state != Phase0 {
		t.Fatal("initial state should be Phase0")
	}
	if s.ReflectionCoeff() != complex(40, 0) {
		t.Fatalf("Phase0 coeff = %v", s.ReflectionCoeff())
	}
	if err := s.Set(Phase180); err != nil {
		t.Fatal(err)
	}
	if s.ReflectionCoeff() != complex(-40, 0) {
		t.Fatalf("Phase180 coeff = %v", s.ReflectionCoeff())
	}
	if err := s.Set(Open); err != nil {
		t.Fatal(err)
	}
	if c := s.ReflectionCoeff(); real(c) != 0.05*40 {
		t.Fatalf("Open leakage coeff = %v", c)
	}
	if err := s.Set(Short); err != nil {
		t.Fatal(err)
	}
	if s.ReflectionCoeff() != complex(40, 0) {
		t.Fatal("Short should reflect at 0°")
	}
	if err := s.Set(SwitchState(9)); err == nil {
		t.Fatal("invalid state accepted")
	}
}

func TestSwitchStateStrings(t *testing.T) {
	for st, want := range map[SwitchState]string{
		Open: "open", Short: "short", Phase0: "phase0", Phase180: "phase180",
	} {
		if st.String() != want {
			t.Fatalf("%d.String() = %q", int(st), st.String())
		}
	}
	if SwitchState(7).String() != "SwitchState(7)" {
		t.Fatal("unknown state String broken")
	}
}

// deltaMagnitude returns |Γ_a − Γ_b| between two states at the switch's
// gain — the quantity Figure 3 compares between the on/off and phase-flip
// designs.
func deltaMagnitude(a *AntennaSwitch, s1, s2 SwitchState) (float64, error) {
	saved := a.state
	defer func() { a.state = saved }()
	if err := a.Set(s1); err != nil {
		return 0, err
	}
	c1 := a.ReflectionCoeff()
	if err := a.Set(s2); err != nil {
		return 0, err
	}
	c2 := a.ReflectionCoeff()
	return cmplx.Abs(c1 - c2), nil
}

func TestPhaseFlipDoublesDelta(t *testing.T) {
	// Figure 3's design argument at the reflection-coefficient level.
	s := NewAntennaSwitch(40)
	onOff, err := deltaMagnitude(s, Short, Open)
	if err != nil {
		t.Fatal(err)
	}
	flip, err := deltaMagnitude(s, Phase0, Phase180)
	if err != nil {
		t.Fatal(err)
	}
	if flip <= 1.9*onOff {
		t.Fatalf("flip delta %v should be ≈2x on/off delta %v", flip, onOff)
	}
	// deltaMagnitude must not disturb the state.
	if s.state != Phase0 {
		t.Fatal("deltaMagnitude leaked a state change")
	}
	if _, err := deltaMagnitude(s, SwitchState(9), Open); err == nil {
		t.Fatal("invalid state accepted")
	}
}

func TestCrystalClockAccuracy(t *testing.T) {
	c := NewCrystal50kHz(nil)
	if c.NominalHz != 50_000 {
		t.Fatal("wrong nominal frequency")
	}
	// Within 25 ppm at calibration temperature.
	hz := c.EffectiveHz(25)
	if math.Abs(hz-50_000)/50_000 > 25e-6 {
		t.Fatalf("crystal off by %v ppm at 25°C", (hz-50_000)/50_000*1e6)
	}
	// Stable across a 10 °C swing.
	hz35 := c.EffectiveHz(35)
	if math.Abs(hz35-hz)/hz > 10e-6 {
		t.Fatal("crystal too temperature-sensitive")
	}
}

func TestRingOscillatorDriftMatchesPaperFootnote(t *testing.T) {
	// Footnote 4: a 5 °C change shifts a 20 MHz ring by ≈600 kHz.
	r := NewRingOscillator(20e6, nil)
	shift := math.Abs(r.EffectiveHz(30) - r.EffectiveHz(25))
	if shift < 400e3 || shift > 800e3 {
		t.Fatalf("5°C shift = %v Hz, paper says ≈600 kHz", shift)
	}
}

func TestClockTicks(t *testing.T) {
	c := NewCrystal50kHz(nil)
	ticks, err := c.TicksFor(time.Millisecond, 25)
	if err != nil {
		t.Fatal(err)
	}
	if ticks < 49 || ticks > 51 {
		t.Fatalf("1 ms = %d ticks at 50 kHz", ticks)
	}
	if _, err := c.TicksFor(-time.Second, 25); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestClockJitterIsRandomButSeeded(t *testing.T) {
	c1 := NewCrystal50kHz(stats.NewRNG(3))
	c2 := NewCrystal50kHz(stats.NewRNG(3))
	for i := 0; i < 20; i++ {
		t1, _ := c1.TicksFor(time.Millisecond, 25)
		t2, _ := c2.TicksFor(time.Millisecond, 25)
		if t1 != t2 {
			t.Fatal("jitter not reproducible under seed")
		}
	}
}

// timingErrorAfter returns the absolute timing error accumulated when the
// tag counts out target using a clock calibrated at NominalTempC but
// running at tempC. Prior systems' ring oscillators fail here: at 6000
// ppm/°C, a 5 °C shift misplaces a 500 µs window by 15 µs — most of a
// subframe.
func timingErrorAfter(c *Clock, target time.Duration, tempC float64) time.Duration {
	calHz := c.EffectiveHz(c.NominalTempC)
	actHz := c.EffectiveHz(tempC)
	ticks := target.Seconds() * calHz
	actual := ticks / actHz
	return time.Duration(math.Abs(actual-target.Seconds()) * float64(time.Second))
}

func TestTimingErrorCrystalVsRing(t *testing.T) {
	crystal := NewCrystal50kHz(nil)
	ring := NewRingOscillator(20e6, nil)
	window := 1280 * time.Microsecond // a 64-subframe aggregate
	ce := timingErrorAfter(crystal, window, 30)
	re := timingErrorAfter(ring, window, 30)
	if ce > 5*time.Microsecond {
		t.Fatalf("crystal error %v over an aggregate", ce)
	}
	if re < 20*time.Microsecond {
		t.Fatalf("ring error %v — should exceed a subframe", re)
	}
	if re < 100*ce {
		t.Fatalf("ring (%v) should be orders of magnitude worse than crystal (%v)", re, ce)
	}
}

func TestDetectionProbability(t *testing.T) {
	// No noise, threshold between levels: certain detection.
	p, err := DetectionProbability(1.0, 0.1, 0.5, 0, 4, 4)
	if err != nil || p != 1 {
		t.Fatalf("p = %v, %v", p, err)
	}
	// No noise, threshold above both: certain miss.
	p, _ = DetectionProbability(1.0, 0.1, 2.0, 0, 4, 4)
	if p != 0 {
		t.Fatalf("p = %v", p)
	}
	// Noise degrades detection monotonically.
	p1, _ := DetectionProbability(1.0, 0.1, 0.5, 0.05, 4, 4)
	p2, _ := DetectionProbability(1.0, 0.1, 0.5, 0.3, 4, 4)
	if !(p1 > p2) {
		t.Fatalf("detection should degrade with noise: %v vs %v", p1, p2)
	}
	if _, err := DetectionProbability(1, 0, 0.5, 0.1, 0, 4); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

// corruptionCoverage is CorruptionCoverageSchedule for a query whose
// subframes all last trueSubframe.
func corruptionCoverage(tg *Tag, timing QueryTiming, bits []byte, trueSubframe time.Duration, tempC float64) ([]float64, error) {
	durations := make([]time.Duration, len(bits))
	for i := range durations {
		durations[i] = trueSubframe
	}
	return tg.CorruptionCoverageSchedule(timing, bits, durations, tempC)
}

func TestCorruptionCoverageAlignedClock(t *testing.T) {
	// Subframe = exactly 1 tick: coverage should land on the right
	// subframes with guard trimming.
	tg := New(40, NewCrystal50kHz(nil))
	bits := []byte{1, 0, 1, 0, 0, 1}
	timing := QueryTiming{SubframeTicks: 1}
	cov, err := corruptionCoverage(tg, timing, bits, 20*time.Microsecond, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		if b == 1 && cov[i] > 0.05 {
			t.Fatalf("subframe %d (bit 1) covered %v", i, cov[i])
		}
		if b == 0 && cov[i] < 0.7 {
			t.Fatalf("subframe %d (bit 0) covered only %v", i, cov[i])
		}
	}
}

func TestCorruptionCoverageCrystalStaysAligned(t *testing.T) {
	// 64 subframes with a crystal: the last bit-0 subframe must still be
	// well covered (quantisation residue stays tiny).
	tg := New(40, NewCrystal50kHz(nil))
	bits := make([]byte, 64)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	timing := QueryTiming{SubframeTicks: 1}
	cov, err := corruptionCoverage(tg, timing, bits, 20*time.Microsecond, 30)
	if err != nil {
		t.Fatal(err)
	}
	if cov[62] < 0.7 { // bit 0 near the end
		t.Fatalf("late subframe coverage %v — crystal should stay aligned", cov[62])
	}
	if cov[63] > 0.1 { // bit 1 at the end
		t.Fatalf("bit-1 subframe bled into: %v", cov[63])
	}
}

func TestCorruptionCoverageRingOscillatorDriftsOff(t *testing.T) {
	// The same aggregate with a hot ring oscillator: late windows must
	// smear across neighbouring subframes — §7's argument quantified.
	ring := NewRingOscillator(50e3, nil)
	tg := New(40, ring)
	bits := make([]byte, 64)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	timing := QueryTiming{SubframeTicks: 1}
	// 10 °C hotter than calibration: 6000 ppm/°C ⇒ 6% fast.
	cov, err := corruptionCoverage(tg, timing, bits, 20*time.Microsecond, 35)
	if err != nil {
		t.Fatal(err)
	}
	// The fast clock shrinks every window by ≈6%, so by mid-aggregate the
	// accumulated drift exceeds whole subframes: bit-1 subframes in the
	// second half get polluted and late bit-0 subframes lose coverage.
	polluted := 0.0
	for i := 32; i < 64; i++ {
		if bits[i] == 1 {
			polluted += cov[i]
		}
	}
	if polluted < 2 {
		t.Fatalf("ring drift should pollute second-half bit-1 subframes, total %v", polluted)
	}
	// The final subframes see no corruption at all: the tag finished early.
	if cov[62]+cov[63] > 0.2 {
		t.Fatalf("tag should have drifted clear of the last subframes, got %v", cov[62]+cov[63])
	}
}

func TestCorruptionCoverageValidation(t *testing.T) {
	tg := New(40, NewCrystal50kHz(nil))
	if _, err := corruptionCoverage(tg, QueryTiming{SubframeTicks: 0}, []byte{0}, time.Microsecond, 25); err == nil {
		t.Fatal("zero subframe ticks accepted")
	}
	if _, err := corruptionCoverage(tg, QueryTiming{SubframeTicks: 1}, []byte{0}, 0, 25); err == nil {
		t.Fatal("zero true subframe accepted")
	}
	tg.GuardFraction = 0.6
	if _, err := corruptionCoverage(tg, QueryTiming{SubframeTicks: 1}, []byte{0}, time.Microsecond, 25); err == nil {
		t.Fatal("guard ≥ 0.5 accepted")
	}
}

func TestReflectionFor(t *testing.T) {
	tg := New(40, NewCrystal50kHz(nil))
	rest, err := tg.ReflectionFor(false)
	if err != nil {
		t.Fatal(err)
	}
	flip, err := tg.ReflectionFor(true)
	if err != nil {
		t.Fatal(err)
	}
	if rest != -flip {
		t.Fatalf("rest %v and flip %v should be antipodal", rest, flip)
	}
}

func TestOscillatorPower(t *testing.T) {
	// 50 kHz crystal: single-digit µW.
	p, err := OscillatorPowerW(CrystalOscillator, 50e3)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.5e-6 || p > 10e-6 {
		t.Fatalf("50 kHz crystal = %v W", p)
	}
	// 20 MHz crystal: >1 mW (the paper's §7 claim).
	p, _ = OscillatorPowerW(CrystalOscillator, 20e6)
	if p < 1e-3 {
		t.Fatalf("20 MHz crystal = %v W, paper says >1 mW", p)
	}
	// 20 MHz ring: tens of µW.
	p, _ = OscillatorPowerW(RingOscillator, 20e6)
	if p < 10e-6 || p > 100e-6 {
		t.Fatalf("20 MHz ring = %v W", p)
	}
	if _, err := OscillatorPowerW(CrystalOscillator, 0); err == nil {
		t.Fatal("zero frequency accepted")
	}
	if _, err := OscillatorPowerW(OscillatorKind(9), 1e6); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if CrystalOscillator.String() != "crystal" || RingOscillator.String() != "ring" {
		t.Fatal("kind String broken")
	}
}

func TestWiTAGBudgetIsMicrowatts(t *testing.T) {
	b := NewBudget(CrystalOscillator, 50e3, 40_000)
	total, err := b.TotalW()
	if err != nil {
		t.Fatal(err)
	}
	if total > 10e-6 {
		t.Fatalf("WiTAG budget = %v W — should be single-digit µW", total)
	}
}

func TestChannelShiftingBudgetsExceedWiTAG(t *testing.T) {
	w, _ := NewBudget(CrystalOscillator, 50e3, 40_000).TotalW()
	ringB, _ := NewBudget(RingOscillator, 20e6, 20e6).TotalW()
	xtalB, _ := NewBudget(CrystalOscillator, 20e6, 20e6).TotalW()
	if ringB < 10*w {
		t.Fatalf("ring-based shifter %v should dwarf WiTAG %v", ringB, w)
	}
	if xtalB < 1e-3 {
		t.Fatalf("crystal-based shifter %v should exceed 1 mW", xtalB)
	}
}

func TestBudgetValidation(t *testing.T) {
	b := NewBudget(CrystalOscillator, 50e3, 100)
	b.LogicW = -1
	if _, err := b.TotalW(); err == nil {
		t.Fatal("negative component accepted")
	}
	b = Budget{Oscillator: OscillatorKind(9), ClockHz: 1}
	if _, err := b.TotalW(); err == nil {
		t.Fatal("unknown oscillator accepted")
	}
}

func TestBatteryFreeFeasibility(t *testing.T) {
	// 5 µW ambient income sustains WiTAG...
	h := Harvester{IncomeW: 5e-6, StorageJ: 0.01}
	ok, _, err := h.BatteryFreeFeasible(NewBudget(CrystalOscillator, 50e3, 40_000))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("WiTAG should run battery-free on 5 µW")
	}
	// ...but not a crystal-based channel shifter; the cap drains.
	ok, lifetime, _ := h.BatteryFreeFeasible(NewBudget(CrystalOscillator, 20e6, 20e6))
	if ok {
		t.Fatal("channel shifter should not be sustainable on 5 µW")
	}
	if lifetime <= 0 || math.IsInf(lifetime, 1) {
		t.Fatalf("lifetime = %v", lifetime)
	}
	// Zero storage: lifetime 0.
	h.StorageJ = 0
	_, lifetime, _ = h.BatteryFreeFeasible(NewBudget(CrystalOscillator, 20e6, 20e6))
	if lifetime != 0 {
		t.Fatalf("lifetime = %v with no storage", lifetime)
	}
}
