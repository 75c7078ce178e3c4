package tag

import (
	"fmt"
	"slices"
	"time"
)

// Tag assembles the hardware models into the WiTAG tag proper: detect a
// query, then flip the antenna switch during the subframes that should
// carry a 0.
type Tag struct {
	Switch   *AntennaSwitch
	Clock    *Clock
	Detector *Detector
	// RestState is the reflection state held outside corruption windows —
	// including during the preamble, so the AP's channel estimate bakes
	// this state in.
	RestState SwitchState
	// FlipState is the corruption state (Phase180 for the §5.2 design,
	// Open for the naive on/off design).
	FlipState SwitchState
	// GuardFraction trims each corruption window at both edges, keeping
	// the flip clear of subframe boundaries despite timing slop.
	GuardFraction float64
	// GroupDelayNs is the electrical delay of the tag's reflection
	// network (antenna + stub + switch); it converts to excess path
	// length in the channel model.
	GroupDelayNs float64
}

// New returns a tag with the prototype's design: phase-flip signalling and
// a 50 kHz crystal.
func New(gain float64, clk *Clock) *Tag {
	return &Tag{
		Switch:        NewAntennaSwitch(gain),
		Clock:         clk,
		Detector:      NewDetector(0.5),
		RestState:     Phase0,
		FlipState:     Phase180,
		GuardFraction: 0.1,
		GroupDelayNs:  25,
	}
}

// ExcessPathM converts the tag's group delay to electrical path length for
// the channel model.
func (t *Tag) ExcessPathM() float64 {
	return t.GroupDelayNs * 1e-9 * 299_792_458.0
}

// CorruptionCoverageSchedule computes, for each data subframe, the
// fraction of its true airtime the tag spends in FlipState when
// transmitting bits.
//
// The tag counts its own clock ticks: it measured the subframe length as
// timing.SubframeTicks during the trigger, and replays that count per data
// subframe. Because both measurement and replay use the same (possibly
// drifted) clock, static frequency error cancels; what remains is the
// quantisation residue δ = ticks·P_actual − S_true, which accumulates
// linearly across the aggregate — negligible for a crystal, ruinous for a
// hot ring oscillator (§7, footnote 4).
//
// trueDurations are the real on-air subframe durations; bits[i] ∈ {0,1}.
// They may differ slightly — the "size dithering" query shaping where the
// sender varies MPDU sizes to keep the cumulative subframe boundaries
// aligned to the tag's tick grid even though a single tick-aligned size
// does not exist at the chosen rate.
//
// Each corruption window is distributed over the true subframes it
// overlaps, as CoverageLayout lays them out, and the bits only choose
// which windows add: coverage[j] += frac·(1−b), in window order.
func (t *Tag) CorruptionCoverageSchedule(timing QueryTiming, bits []byte, trueDurations []time.Duration, tempC float64) ([]float64, error) {
	if len(trueDurations) != len(bits) {
		return nil, fmt.Errorf("tag: %d durations for %d bits", len(trueDurations), len(bits))
	}
	var buf CoverageBuffers
	if err := t.CoverageLayout(&buf, timing, trueDurations, tempC); err != nil {
		return nil, err
	}
	return buf.coverage(bits), nil
}

// CoverageBuffers holds a window layout: the true subframe boundaries,
// with a copy of the durations they were summed from, and every window's
// contributions for those boundaries and one window geometry, so a
// layout of the same durations and geometry reuses both.
type CoverageBuffers struct {
	starts    []float64
	durations []time.Duration // what starts was built from

	// Window i, when it corrupts, adds contribs[k].Frac to the coverage of
	// subframe contribs[k].Sub for k in [ends[i-1], ends[i]), with
	// ends[-1] taken as 0: every subframe it overlaps, in order. Built for
	// starts and the window geometry (sTag, guard); stale when
	// haveContribs is false.
	contribs     []Contribution
	ends         []int
	sTag, guard  float64
	haveContribs bool
}

// Reset empties buf, keeping its storage: the next layout builds its
// boundaries and contributions afresh.
func (buf *CoverageBuffers) Reset() {
	buf.durations, buf.haveContribs = buf.durations[:0], false
}

// Contribution is the share of subframe Sub's airtime one corruption
// window covers.
type Contribution struct {
	Sub  int
	Frac float64
}

// Contributions returns window i's contributions in the layout
// CoverageLayout last built: every subframe the window overlaps, in
// order. Window i is the one data subframe i's bit opens. The slice
// aliases buf and is valid until its next layout.
func (buf *CoverageBuffers) Contributions(i int) []Contribution {
	lo := 0
	if i > 0 {
		lo = buf.ends[i-1]
	}
	return buf.contribs[lo:buf.ends[i]]
}

// CoverageLayout lays one corruption window per subframe of
// trueDurations over those subframes, for timing at tempC, into buf:
// which subframes each window overlaps, and by how much. That depends on
// the boundaries and the window geometry but not on the bits. It rejects
// what CorruptionCoverageSchedule rejects, with the same errors, and
// reuses what buf holds for the same durations and geometry.
func (t *Tag) CoverageLayout(buf *CoverageBuffers, timing QueryTiming, trueDurations []time.Duration, tempC float64) error {
	if timing.SubframeTicks <= 0 {
		return fmt.Errorf("tag: non-positive subframe ticks %d", timing.SubframeTicks)
	}
	if t.GuardFraction < 0 || t.GuardFraction >= 0.5 {
		return fmt.Errorf("tag: guard fraction %v outside [0, 0.5)", t.GuardFraction)
	}
	tick := t.Clock.SecondsPerTick(tempC)
	if tick <= 0 {
		return fmt.Errorf("tag: clock stopped")
	}
	sTag := float64(timing.SubframeTicks) * tick
	guard := t.GuardFraction * sTag

	// True subframe boundaries. Cached durations have passed the check.
	if !slices.Equal(buf.durations, trueDurations) {
		for i, d := range trueDurations {
			if d <= 0 {
				return fmt.Errorf("tag: non-positive duration for subframe %d", i)
			}
		}
		buf.starts = slices.Grow(buf.starts[:0], len(trueDurations)+1)[:len(trueDurations)+1]
		buf.starts[0] = 0
		for i, d := range trueDurations {
			buf.starts[i+1] = buf.starts[i] + d.Seconds()
		}
		buf.durations = append(buf.durations[:0], trueDurations...)
		buf.haveContribs = false
	}
	if !buf.haveContribs || buf.sTag != sTag || buf.guard != guard {
		buf.buildContribs(sTag, guard)
	}
	return nil
}

// coverage sums the layout's windows for bits: the fraction of each
// subframe's airtime under a corrupting window, clamped at 1. A resting
// window adds +0, which leaves every entry's bits as they were, so the
// sums equal visiting only the corrupting windows.
func (buf *CoverageBuffers) coverage(bits []byte) []float64 {
	coverage := make([]float64, len(bits))
	k := 0
	for i, b := range bits {
		flip := float64(1 - b&1) // 1 for a 0 bit, whose window corrupts
		for ; k < buf.ends[i]; k++ {
			c := buf.contribs[k]
			coverage[c.Sub] += c.Frac * flip
		}
	}
	for i, c := range coverage {
		if c > 1 {
			coverage[i] = 1
		}
	}
	return coverage
}

// buildContribs lays every window of the geometry over the boundaries in
// buf.starts. Windows and subframes both advance monotonically in time,
// so one subframe pointer walks forward across all windows: each window
// visits only the subframes it can overlap, and keeps the same nonzero
// overlaps, in the same order, as comparing it with every subframe.
func (buf *CoverageBuffers) buildContribs(sTag, guard float64) {
	starts := buf.starts
	n := len(starts) - 1
	if cap(buf.ends) < n {
		// A window about one subframe long overlaps about two.
		buf.ends, buf.contribs = make([]int, 0, n), make([]Contribution, 0, 2*n)
	}
	buf.contribs = buf.contribs[:0]
	buf.ends = buf.ends[:0]
	first := 0 // first subframe that does not end before the current window
	for i := 0; i < n; i++ {
		// Tag-side window in true time (ticks are real time).
		wStart := float64(i)*sTag + guard
		wEnd := float64(i+1)*sTag - guard
		// Skip subframes ending at or before the window, stop at the
		// first starting at or after it.
		for first < n && starts[first+1] <= wStart {
			first++
		}
		for j := first; j < n && starts[j] < wEnd; j++ {
			if ov := overlap(wStart, wEnd, starts[j], starts[j+1]); ov > 0 {
				buf.contribs = append(buf.contribs, Contribution{Sub: j, Frac: ov / (starts[j+1] - starts[j])})
			}
		}
		buf.ends = append(buf.ends, len(buf.contribs))
	}
	buf.sTag, buf.guard, buf.haveContribs = sTag, guard, true
}

func overlap(a0, a1, b0, b1 float64) float64 {
	lo := a0
	if b0 > lo {
		lo = b0
	}
	hi := a1
	if b1 < hi {
		hi = b1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// ReflectionFor returns the tag's reflection coefficient for a given
// instantaneous logical state: resting or flipped.
func (t *Tag) ReflectionFor(flipped bool) (complex128, error) {
	state := t.RestState
	if flipped {
		state = t.FlipState
	}
	if err := t.Switch.Set(state); err != nil {
		return 0, err
	}
	return t.Switch.ReflectionCoeff(), nil
}
