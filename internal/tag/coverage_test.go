package tag

import (
	"fmt"
	"testing"
	"time"

	"witag/internal/stats"
)

// quadraticCoverage is the direct form of CorruptionCoverageSchedule:
// every corruption window compared with every subframe.
func quadraticCoverage(t *Tag, timing QueryTiming, bits []byte, durations []time.Duration, tempC float64) []float64 {
	tick := t.Clock.SecondsPerTick(tempC)
	sTag := float64(timing.SubframeTicks) * tick
	guard := t.GuardFraction * sTag
	starts := make([]float64, len(bits)+1)
	for i, d := range durations {
		starts[i+1] = starts[i] + d.Seconds()
	}
	coverage := make([]float64, len(bits))
	for i, b := range bits {
		if b&1 == 1 {
			continue
		}
		wStart := float64(i)*sTag + guard
		wEnd := float64(i+1)*sTag - guard
		for j := range bits {
			if ov := overlap(wStart, wEnd, starts[j], starts[j+1]); ov > 0 {
				coverage[j] += ov / (starts[j+1] - starts[j])
			}
		}
	}
	for i, c := range coverage {
		if c > 1 {
			coverage[i] = 1
		}
	}
	return coverage
}

// TestWindowedCoverageMatchesQuadratic checks the monotone-pointer walk
// against the all-pairs loop bit for bit, on random bits, dithered
// subframe durations and clocks from aligned to badly drifting, reusing
// one buffer set across every case.
func TestWindowedCoverageMatchesQuadratic(t *testing.T) {
	rng := stats.NewRNG(21)
	var buf CoverageBuffers
	clocks := []struct {
		name  string
		clock *Clock
		temps []float64
	}{
		{"crystal", NewCrystal50kHz(nil), []float64{-10, 25, 60}},
		{"ring oscillator", NewRingOscillator(50e3, nil), []float64{15, 25, 35, 45}},
		{"fast ring oscillator", NewRingOscillator(1e6, nil), []float64{20, 40}},
	}
	for _, c := range clocks {
		tg := New(40, c.clock)
		for _, tempC := range c.temps {
			for trial := 0; trial < 40; trial++ {
				n := 1 + rng.Intn(64)
				bits := stats.RandomBits(rng, n)
				ticks := 1 + rng.Intn(4)
				nominal := time.Duration(ticks) * 20 * time.Microsecond
				durations := make([]time.Duration, n)
				for i := range durations {
					// ±2 on-air bytes of shaping dither at a few Mbps.
					durations[i] = nominal + time.Duration(rng.Intn(2001)-1000)*time.Nanosecond
				}
				tg.GuardFraction = []float64{0, 0.1, 0.3}[trial%3]
				timing := QueryTiming{SubframeTicks: ticks}
				want := quadraticCoverage(tg, timing, bits, durations, tempC)
				got, err := tg.CorruptionCoverageInto(&buf, timing, bits, durations, tempC)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s at %v°C trial %d", c.name, tempC, trial)
				if len(got) != len(want) {
					t.Fatalf("%s: %d entries, want %d", name, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s: subframe %d coverage %v, want %v", name, j, got[j], want[j])
					}
				}
				fresh, err := tg.CorruptionCoverageSchedule(timing, bits, durations, tempC)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if fresh[j] != want[j] {
						t.Fatalf("%s: unbuffered subframe %d coverage %v, want %v", name, j, fresh[j], want[j])
					}
				}
			}
		}
	}
}
