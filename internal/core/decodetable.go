package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"witag/internal/dot11"
	"witag/internal/tag"
)

// Table-driven subframe decode (DESIGN.md §17, stage 8). A subframe's
// decode verdict depends on the round's bits only through how its bits
// split between the clean channel and the tag's corruption windows, and
// that split depends on the bits only through the windows that overlap
// the subframe. A decodeTable therefore holds, per subframe, the split
// for every bit combination of its windows, built once per plan and
// window geometry with the arithmetic the per-round coverage sum used; a
// round only indexes it, and prices each split it meets once.

// maxTableWindows bounds how many corruption windows one subframe may
// lie under: the table holds 2^k splits for a subframe under k windows.
// A shaped query's windows are about one subframe long, so a subframe
// lies under at most two or three of them even on a drifting clock.
const maxTableWindows = 8

// split divides a subframe's bits between the clean channel and the
// tag's corruption.
type split struct{ clean, dirty int }

// tableSub is one subframe's entry: its split for window bit combination
// c is splits[combos[off+c]], and c is the round's window flips shifted
// down by first and masked.
type tableSub struct {
	off         int32
	first, mask uint8
}

// decodeTable holds every subframe's split for one query plan and one
// window geometry, and the current round's price of each split.
type decodeTable struct {
	// The key: the plan's per-subframe bits and data subframe airtimes,
	// and the window geometry (ticks 0: no windows). gen is the plan
	// computation the table last matched.
	subBits     []int
	airs        []time.Duration
	gen         int
	ticks       int
	tick, guard float64

	subs   []tableSub // one per subframe, triggers first
	combos []uint16   // indices into splits
	splits []split

	// price[i] is split i's success probability this round when
	// stamp[i] == round.
	price []float64
	stamp []uint32
	round uint32
}

// empty marks t built for no plan, keeping its storage.
func (t *decodeTable) empty() {
	t.subBits, t.gen = t.subBits[:0], 0
}

// forPlan reports whether t was built for plan's subframes, comparing
// them only when the plan was recomputed since t last matched it.
func (t *decodeTable) forPlan(plan *queryPlan) bool {
	if t.gen == plan.gen {
		return true
	}
	if !slices.Equal(t.subBits, plan.subBits) || !slices.Equal(t.airs, plan.airs[plan.spec.TriggerLen:]) {
		return false
	}
	t.gen = plan.gen
	return true
}

// tableFor returns the decode table for the round's plan and, when the
// tag detected the trigger, for the window geometry it replays at timing.
// An undetected tag flips no window, so any table of the plan serves it:
// every subframe takes its all-clean split. The system keeps the last two
// tables, so a world whose geometry alternates (an ARQ rate ladder, a
// clock jittering across a tick) builds each once.
func (s *System) tableFor(plan *queryPlan, detected bool, timing tag.QueryTiming) (*decodeTable, error) {
	ticks, tick, guard := 0, 0.0, 0.0
	if detected {
		ticks, tick, guard = timing.SubframeTicks, s.Tag.Clock.SecondsPerTick(s.TempC), s.Tag.GuardFraction
	}
	for i, t := range s.tables {
		if t != nil && t.forPlan(plan) && (!detected || t.ticks == ticks && t.tick == tick && t.guard == guard) {
			s.tables[0], s.tables[i] = t, s.tables[0]
			return t, nil
		}
	}
	var lay *tag.CoverageBuffers
	if detected {
		if err := s.Tag.CoverageLayout(&s.cov, timing, plan.airs[plan.spec.TriggerLen:], s.TempC); err != nil {
			return nil, err
		}
		lay = &s.cov
	}
	t := s.tables[1]
	if t == nil {
		t = new(decodeTable)
	}
	s.tables[1] = nil // a failed build leaves no half-built table
	if err := t.build(plan, lay); err != nil {
		return nil, err
	}
	t.ticks, t.tick, t.guard = ticks, tick, guard
	s.tables[0], s.tables[1] = t, s.tables[0]
	return t, nil
}

// build fills t for plan's subframes under lay's windows (nil: none).
// Each split is what the per-round coverage sum gave: the windows'
// fractions added in window order from +0, a resting window adding
// frac·0 = +0, clamped at 1; an uncovered subframe sends every bit
// clean, a covered one round(bits·(1−coverage)).
func (t *decodeTable) build(plan *queryPlan, lay *tag.CoverageBuffers) error {
	trig, total := plan.spec.TriggerLen, len(plan.subBits)
	t.subBits = append(t.subBits[:0], plan.subBits...)
	t.airs = append(t.airs[:0], plan.airs[trig:]...)
	t.gen = plan.gen
	t.subs = slices.Grow(t.subs[:0], total)[:total]
	clear(t.subs)
	t.combos, t.splits = t.combos[:0], t.splits[:0]

	// The windows over each data subframe: first[j], count k[j]. Windows
	// and subframes both advance in time, so they are consecutive.
	var first, k [dot11.MaxSubframes]int
	if lay != nil {
		for w := range total - trig {
			for _, c := range lay.Contributions(w) {
				j := c.Sub
				if k[j] > 0 && first[j]+k[j] != w {
					return fmt.Errorf("core: windows over data subframe %d are not consecutive", j)
				}
				if k[j] == 0 {
					first[j] = w
				}
				if k[j]++; k[j] > maxTableWindows {
					return fmt.Errorf("core: data subframe %d lies under more than %d corruption windows", j, maxTableWindows)
				}
			}
		}
	}
	size := trig
	for _, n := range k[:total-trig] {
		size += 1 << n
	}
	t.combos = slices.Grow(t.combos, size)
	var fracs [maxTableWindows]float64
	for i := range total {
		bits, sub := plan.subBits[i], &t.subs[i]
		sub.off = int32(len(t.combos))
		n := 0
		if j := i - trig; j >= 0 && k[j] > 0 {
			n, sub.first, sub.mask = k[j], uint8(first[j]), uint8(1<<k[j]-1)
			for b := range n {
				for _, c := range lay.Contributions(first[j] + b) {
					if c.Sub == j {
						fracs[b] = c.Frac
					}
				}
			}
		}
		for combo := range 1 << n {
			coverage := 0.0
			for b := range n {
				coverage += fracs[b] * float64(combo>>b&1)
			}
			if coverage > 1 {
				coverage = 1
			}
			sp := split{clean: bits}
			if coverage > 0 {
				sp.clean = int(math.Round(float64(bits) * (1 - coverage)))
				sp.dirty = bits - sp.clean
			}
			id := slices.Index(t.splits, sp)
			if id < 0 {
				id = len(t.splits)
				t.splits = append(t.splits, sp)
			}
			t.combos = append(t.combos, uint16(id))
		}
	}
	t.price = slices.Grow(t.price[:0], len(t.splits))[:len(t.splits)]
	t.stamp = slices.Grow(t.stamp[:0], len(t.splits))[:len(t.splits)]
	clear(t.stamp)
	t.round = 0
	return nil
}

// roundSplits fills ids[i] with the split subframe i takes this round:
// the data subframes under the tag's windows when it detected the
// trigger, except the browned-out ones [brownStart, brownStart+brownLen),
// whose switch stays at rest; every other subframe goes all clean.
func (t *decodeTable) roundSplits(ids []uint16, txBits []byte, detected bool, brownStart, brownLen int) {
	var flips uint64 // bit j: data subframe j's window corrupts
	if detected {
		for j, b := range txBits {
			flips |= uint64(1-b&1) << j
		}
	}
	trig := len(t.subs) - len(txBits)
	for i := range ids {
		sub := t.subs[i]
		combo := flips >> sub.first & uint64(sub.mask)
		if j := i - trig; j >= brownStart && j < brownStart+brownLen {
			combo = 0
		}
		ids[i] = t.combos[int(sub.off)+int(combo)]
	}
}

// begin starts a round: no split has a price yet.
func (t *decodeTable) begin() {
	t.round++
	if t.round == 0 { // wrapped: an old stamp could match again
		clear(t.stamp)
		t.round = 1
	}
}

// prob returns split id's success probability at the round's coded BERs
// — phy.SuccessProbAtBER of its clean and of its corrupted bits, through
// the round's memo — evaluating it on the split's first use this round.
// An all-clean split is 1·p, which is p exactly.
func (t *decodeTable) prob(id uint16, m *successMemo, cleanBER, dirtyBER float64) float64 {
	if t.stamp[id] == t.round {
		return t.price[id]
	}
	sp, p := t.splits[id], 1.0
	if sp.clean > 0 {
		p *= m.prob(cleanBER, sp.clean)
	}
	if sp.dirty > 0 {
		p *= m.prob(dirtyBER, sp.dirty)
	}
	t.price[id], t.stamp[id] = p, t.round
	return p
}
