package tag

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
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

// walkCoverage is CorruptionCoverageSchedule as it was before the
// contribution cache: one subframe pointer walked forward across the
// corrupting windows only, adding each nonzero overlap as it is found.
func walkCoverage(t *Tag, timing QueryTiming, bits []byte, durations []time.Duration, tempC float64) []float64 {
	tick := t.Clock.SecondsPerTick(tempC)
	sTag := float64(timing.SubframeTicks) * tick
	guard := t.GuardFraction * sTag
	starts := make([]float64, len(bits)+1)
	for i, d := range durations {
		starts[i+1] = starts[i] + d.Seconds()
	}
	coverage := make([]float64, len(bits))
	first := 0
	for i, b := range bits {
		if b&1 == 1 {
			continue
		}
		wStart := float64(i)*sTag + guard
		wEnd := float64(i+1)*sTag - guard
		for first < len(bits) && starts[first+1] <= wStart {
			first++
		}
		for j := first; j < len(bits) && starts[j] < wEnd; j++ {
			ov := overlap(wStart, wEnd, starts[j], starts[j+1])
			if ov > 0 {
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

// TestCoverageContributionsMatchWalk holds the cached contributions to
// the walk they replace, bit for bit: per geometry, many rounds of random
// bits (all-zero and all-one among them) reuse one contribution set, over
// dithered durations, every guard the tag allows a quarter of, and
// clocks from aligned to badly drifting.
func TestCoverageContributionsMatchWalk(t *testing.T) {
	rng := stats.NewRNG(23)
	var buf CoverageBuffers
	clocks := []struct {
		name  string
		clock *Clock
		temps []float64
	}{
		{"crystal", NewCrystal50kHz(nil), []float64{-10, 25, 60}},
		{"ring oscillator", NewRingOscillator(50e3, nil), []float64{15, 25, 45}},
		{"fast ring oscillator", NewRingOscillator(1e6, nil), []float64{20, 40}},
	}
	for _, c := range clocks {
		tg := New(40, c.clock)
		for _, tempC := range c.temps {
			for geom := 0; geom < 12; geom++ {
				n := 1 + rng.Intn(64)
				ticks := 1 + rng.Intn(4)
				nominal := time.Duration(ticks) * 20 * time.Microsecond
				durations := make([]time.Duration, n)
				for i := range durations {
					durations[i] = nominal + time.Duration(rng.Intn(4001)-2000)*time.Nanosecond
				}
				tg.GuardFraction = []float64{0, 0.05, 0.1, 0.3, 0.49}[geom%5]
				timing := QueryTiming{SubframeTicks: ticks}
				for round := 0; round < 20; round++ {
					var bits []byte
					switch round {
					case 0:
						bits = make([]byte, n)
					case 1:
						bits = bytes.Repeat([]byte{1}, n)
					default:
						bits = stats.RandomBits(rng, n)
					}
					want := walkCoverage(tg, timing, bits, durations, tempC)
					got, err := tg.CorruptionCoverageInto(&buf, timing, bits, durations, tempC)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s at %v°C geometry %d round %d: %d entries, want %d", c.name, tempC, geom, round, len(got), len(want))
					}
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s at %v°C geometry %d round %d: subframe %d coverage %v, walk gives %v",
								c.name, tempC, geom, round, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestCoverageBoundaryCacheInvalidation reuses one buffer set while the
// durations the cached boundaries were summed from change in turn (edited
// in place, replaced by a slice of the same length, shortened and
// lengthened), and while the window geometry the cached contributions
// are keyed on changes too: the measured ticks, the temperature with and
// without a guard, and the guard fraction; and between unchanged calls.
// Every result must equal a fresh build's bit for bit, and each edit must
// move the coverage, so stale boundaries or contributions could not pass
// unseen. A rejected duration must not be cached either.
func TestCoverageBoundaryCacheInvalidation(t *testing.T) {
	tg := New(40, NewRingOscillator(50e3, nil))
	timing := QueryTiming{SubframeTicks: 1}
	tempC := 25.0
	base := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = 20*time.Microsecond + time.Duration(i%3)*300*time.Nanosecond
		}
		return d
	}
	durations := base(60)
	var buf CoverageBuffers
	var last []float64
	steps := []struct {
		name string
		edit func()
	}{
		{"first call", func() {}},
		{"unchanged", func() {}},
		{"edited in place", func() { durations[7] += 2 * time.Microsecond }},
		{"edited in place again", func() { durations[0] -= time.Microsecond }},
		{"new slice, same length", func() { durations = base(60); durations[30] += 4 * time.Microsecond }},
		{"shortened", func() { durations = durations[:41] }},
		{"lengthened", func() { durations = base(64) }},
		{"ticks", func() { timing.SubframeTicks = 2 }},
		{"temperature", func() { tempC = 45 }},
		{"guard fraction", func() { tg.GuardFraction = 0.2 }},
		{"no guard", func() { tg.GuardFraction = 0 }},
		{"temperature, no guard", func() { tempC = 5 }}, // the guard stays 0
		{"unchanged at last", func() {}},
	}
	for _, s := range steps {
		s.edit()
		bits := make([]byte, len(durations)) // windows on even subframes
		for i := 1; i < len(bits); i += 2 {
			bits[i] = 1
		}
		got, err := tg.CorruptionCoverageInto(&buf, timing, bits, durations, tempC)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tg.CorruptionCoverageSchedule(timing, bits, durations, tempC)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", s.name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: subframe %d coverage %v, fresh buffers give %v", s.name, i, got[i], want[i])
			}
		}
		changed := !slices.Equal(got, last)
		if strings.HasPrefix(s.name, "unchanged") == changed {
			t.Fatalf("%s: coverage changed = %v", s.name, changed)
		}
		last = slices.Clone(got)
	}

	// A bad duration is rejected every time, not cached.
	durations[3] = 0
	for i := 0; i < 2; i++ {
		if _, err := tg.CorruptionCoverageInto(&buf, timing, make([]byte, len(durations)), durations, tempC); err == nil {
			t.Fatalf("call %d accepted a zero duration", i)
		}
	}
	// No subframes: nothing to cover.
	got, err := tg.CorruptionCoverageInto(&buf, timing, nil, nil, tempC)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty query: %v, %v", got, err)
	}
}

// BenchmarkCorruptionCoverage times one round's coverage as QueryRound
// computes it: 60 dithered data subframes, fresh random bits each round,
// one buffer set reused across rounds.
func BenchmarkCorruptionCoverage(b *testing.B) {
	tg := New(40, NewCrystal50kHz(nil))
	rng := stats.NewRNG(4)
	durations := make([]time.Duration, 60)
	for i := range durations {
		durations[i] = 20*time.Microsecond + time.Duration(rng.Intn(2001)-1000)*time.Nanosecond
	}
	bits := make([][]byte, 64)
	for i := range bits {
		bits[i] = stats.RandomBits(rng, len(durations))
	}
	timing := QueryTiming{SubframeTicks: 1}
	var buf CoverageBuffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.CorruptionCoverageInto(&buf, timing, bits[i%len(bits)], durations, 25); err != nil {
			b.Fatal(err)
		}
	}
}
