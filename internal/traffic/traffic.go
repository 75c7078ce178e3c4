// Package traffic generates deterministic ambient A-MPDU traffic for a
// WiTAG deployment. The fault package models *interference* (bursts of
// corruption); this package models the *offered load* of other WiFi
// stations sharing the channel — the dynamic-traffic dimension FlexScatter
// and GuardRider adapt their coding to. Ambient stations transmit their
// own A-MPDUs; whenever one of those bursts overlaps a query subframe, the
// collision erases that subframe at the AP.
//
// The arrival process is a discretised MMPP (Markov-modulated Poisson
// process): a small Markov chain over load states steps once per query
// round, and the current state's rate drives a Poisson draw of burst
// arrivals for that round. Each burst occupies a contiguous window of
// subframes (uniform start, geometric-ish exponential length), which is
// what makes the loss process bursty rather than i.i.d.
//
// Determinism contract: a Generator consumes its RNG in a fixed per-round
// order — one state-transition draw, one Poisson arrival-count draw, then
// (start, length) per arrival — regardless of what the round does with
// the mask. All randomness comes from the generator's own seed via
// stats.SubSeed, so attaching a generator never perturbs the fault or
// channel streams, and paired trials stay paired.
package traffic

import (
	"fmt"
	"math/rand"
	"sort"

	"witag/internal/obs"
	"witag/internal/stats"
)

// State is one MMPP load level.
type State struct {
	// ArrivalsPerRound is the Poisson mean number of ambient bursts that
	// begin during one query round in this state.
	ArrivalsPerRound float64
	// MeanBurstSubframes is the mean length, in subframes, of each
	// burst's collision window (exponentially distributed, min 1).
	MeanBurstSubframes float64
}

// Profile is a named MMPP: states plus a row-stochastic per-round
// transition matrix.
type Profile struct {
	States []State
	// Trans[i][j] is the per-round probability of moving from state i to
	// state j; each row must sum to 1.
	Trans [][]float64
	// Start is the initial state index.
	Start int
}

// Validate checks the chain's shape and stochasticity.
func (p Profile) Validate() error {
	n := len(p.States)
	if n == 0 {
		return fmt.Errorf("traffic: profile has no states")
	}
	if p.Start < 0 || p.Start >= n {
		return fmt.Errorf("traffic: start state %d outside [0,%d)", p.Start, n)
	}
	for i, s := range p.States {
		if s.ArrivalsPerRound < 0 {
			return fmt.Errorf("traffic: state %d arrival rate %v < 0", i, s.ArrivalsPerRound)
		}
		if s.ArrivalsPerRound > 0 && s.MeanBurstSubframes <= 0 {
			return fmt.Errorf("traffic: state %d has arrivals but mean burst %v", i, s.MeanBurstSubframes)
		}
	}
	if len(p.Trans) != n {
		return fmt.Errorf("traffic: %d transition rows for %d states", len(p.Trans), n)
	}
	for i, row := range p.Trans {
		if len(row) != n {
			return fmt.Errorf("traffic: transition row %d has %d entries, want %d", i, len(row), n)
		}
		sum := 0.0
		for j, v := range row {
			if v < 0 || v > 1 {
				return fmt.Errorf("traffic: Trans[%d][%d] = %v outside [0,1]", i, j, v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("traffic: transition row %d sums to %v, want 1", i, sum)
		}
	}
	return nil
}

// profiles are the named presets, ordered mild to severe. Two-state
// chains (a quiet state and a busy state) except "saturated", whose busy
// state is also the start.
var profiles = []struct {
	name string
	p    Profile
}{
	// quiet: a mostly-idle channel with the odd short burst.
	{"quiet", Profile{
		States: []State{
			{ArrivalsPerRound: 0.05, MeanBurstSubframes: 3},
			{ArrivalsPerRound: 0.5, MeanBurstSubframes: 4},
		},
		Trans: [][]float64{{0.98, 0.02}, {0.3, 0.7}},
	}},
	// office: steady light load with busy spells.
	{"office", Profile{
		States: []State{
			{ArrivalsPerRound: 0.3, MeanBurstSubframes: 4},
			{ArrivalsPerRound: 1.5, MeanBurstSubframes: 6},
		},
		Trans: [][]float64{{0.95, 0.05}, {0.15, 0.85}},
	}},
	// download: long dwell in a heavy state — a neighbour pulling a large
	// transfer — separated by quiet gaps.
	{"download", Profile{
		States: []State{
			{ArrivalsPerRound: 0.1, MeanBurstSubframes: 3},
			{ArrivalsPerRound: 2.5, MeanBurstSubframes: 10},
		},
		Trans: [][]float64{{0.9, 0.1}, {0.05, 0.95}},
	}},
	// saturated: the channel is almost always carrying someone else's
	// A-MPDUs; starts busy.
	{"saturated", Profile{
		States: []State{
			{ArrivalsPerRound: 0.8, MeanBurstSubframes: 4},
			{ArrivalsPerRound: 2.5, MeanBurstSubframes: 8},
		},
		Trans: [][]float64{{0.7, 0.3}, {0.15, 0.85}},
		Start: 1,
	}},
}

// Named returns a preset profile by name. The empty string and "off" are
// not profiles; callers model "no ambient traffic" by not attaching a
// Generator.
func Named(name string) (Profile, error) {
	for _, e := range profiles {
		if e.name == name {
			return e.p, nil
		}
	}
	return Profile{}, fmt.Errorf("traffic: unknown profile %q (have %v)", name, Names())
}

// Names lists the preset profiles, sorted.
func Names() []string {
	out := make([]string, len(profiles))
	for i, e := range profiles {
		out[i] = e.name
	}
	sort.Strings(out)
	return out
}

// Generator steps one MMPP and hands out per-round collision masks. Not
// safe for concurrent use — one Generator per deployment, like
// fault.Injector.
type Generator struct {
	// Obs, when non-nil, receives traffic counters. Like every observer
	// hook it is passive: counters only, no RNG draws, no branching back
	// into the draw sequence.
	Obs *obs.Observer

	prof  Profile
	rng   *rand.Rand
	state int
	mask  []bool // RoundMask's result, reused across rounds
}

// NewGenerator validates p and seeds the generator's private RNG stream.
func NewGenerator(p Profile, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Generator{prof: p, rng: stats.NewRNG(seed), state: p.Start}, nil
}

// State returns the chain's current state index (for tests and traces).
func (g *Generator) State() int { return g.state }

// RoundMask draws one round of ambient traffic and returns the collision
// mask over n subframes: mask[i] reports that an ambient burst overlapped
// subframe i. The draw order is fixed (transition, count, then start and
// length per burst) so the stream is a pure function of the seed. The
// mask is the generator's own storage, valid until the next call.
func (g *Generator) RoundMask(n int) []bool {
	if cap(g.mask) < n {
		g.mask = make([]bool, n)
	}
	mask := g.mask[:n]
	clear(mask)
	// 1. Step the load chain.
	u := g.rng.Float64()
	row := g.prof.Trans[g.state]
	next := len(row) - 1
	acc := 0.0
	for j, pj := range row {
		acc += pj
		if u < acc {
			next = j
			break
		}
	}
	switched := next != g.state
	g.state = next
	st := g.prof.States[g.state]
	// 2. How many ambient bursts start this round?
	bursts := stats.Poisson(g.rng, st.ArrivalsPerRound)
	// 3. Place each burst: uniform start, exponential length ≥ 1.
	masked := 0
	for b := 0; b < bursts; b++ {
		start := g.rng.Intn(n)
		length := int(stats.Exponential(g.rng, st.MeanBurstSubframes)) + 1
		for i := start; i < start+length && i < n; i++ {
			if !mask[i] {
				masked++
			}
			mask[i] = true
		}
	}
	if o := g.Obs; o != nil {
		m := o.Traffic
		m.Rounds.Inc()
		m.Bursts.Add(int64(bursts))
		m.SubframesMask.Add(int64(masked))
		if switched {
			m.StateSwitches.Inc()
		}
	}
	return mask
}
