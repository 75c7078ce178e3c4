// Package fault injects deterministic channel and hardware faults into a
// WiTAG deployment. The paper's §4.1 concedes that "WiFi never reaches a
// zero error rate" and defers error handling to future work; the seed
// reproduction modelled that residual as an i.i.d. per-subframe loss
// (core.System.AmbientLossProb). Real interference is not Bernoulli:
// microwave ovens duty-cycle at mains frequency, hidden terminals collide
// in clumps, and a harvesting tag browns out for whole windows. This
// package replaces the i.i.d. floor with a Gilbert–Elliott two-state
// burst process plus three control-plane fault classes, all drawn from an
// explicit seed so experiments stay bit-for-bit reproducible.
//
// Determinism contract: an Injector consumes its RNG in a fixed per-round
// order — TriggerMissed, BrownoutWindow, one SubframeLost per subframe,
// then BALost. Whoever evaluates a world's round calls the hooks
// unconditionally in that order: core.System.QueryRound, or the
// core.LinkTape a system reads its world from. The fault stream therefore
// depends only on the injector seed and the number of rounds/subframes,
// never on decode outcomes. The hooks only draw: counting and tracing the
// verdicts is the core.System's job (System.Injected and its observer),
// so a system reading a tape counts the tape's verdicts exactly as it
// counts its own.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"witag/internal/stats"
)

// Profile parameterises one fault environment.
type Profile struct {
	// Gilbert–Elliott burst interferer, stepped once per subframe. The
	// chain starts in the good state; a subframe is lost with LossGood or
	// LossBad depending on the state after the step. Mean bad-state dwell
	// is 1/PBadGood subframes.
	PGoodBad float64 // P(good → bad) per subframe
	PBadGood float64 // P(bad → good) per subframe
	LossGood float64 // subframe loss probability in the good state
	LossBad  float64 // subframe loss probability in the bad state

	// TriggerMissProb erases the tag's trigger detection for a whole
	// round: the interferer was on top of the trigger subframes, so the
	// tag never times the query and never modulates.
	TriggerMissProb float64
	// BALossProb erases the round at the client: the AP's block ACK is
	// transmitted but the client never decodes it, so every tag bit of
	// the round is unknown.
	BALossProb float64
	// BrownoutProb starts, with this per-round probability, a harvester
	// undervoltage window of BrownoutSubframes data subframes during
	// which the tag's switch freezes in its rest state (the bits read as
	// idle 1s at the client).
	BrownoutProb      float64
	BrownoutSubframes int
}

// Validate checks every probability and the brownout window length.
func (p Profile) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"PGoodBad", p.PGoodBad}, {"PBadGood", p.PBadGood},
		{"LossGood", p.LossGood}, {"LossBad", p.LossBad},
		{"TriggerMissProb", p.TriggerMissProb}, {"BALossProb", p.BALossProb},
		{"BrownoutProb", p.BrownoutProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s = %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.BrownoutProb > 0 && p.BrownoutSubframes < 1 {
		return fmt.Errorf("fault: brownout enabled with %d-subframe window", p.BrownoutSubframes)
	}
	return nil
}

// BadFraction returns the chain's steady-state probability of the bad
// state.
func (p Profile) BadFraction() float64 {
	if p.PGoodBad+p.PBadGood == 0 {
		return 0
	}
	return p.PGoodBad / (p.PGoodBad + p.PBadGood)
}

// AvgLoss returns the steady-state mean subframe loss probability — the
// i.i.d. rate an equal-average Bernoulli interferer would need.
func (p Profile) AvgLoss() float64 {
	fb := p.BadFraction()
	return fb*p.LossBad + (1-fb)*p.LossGood
}

// profiles are the named presets, ordered mild to severe.
var profiles = []struct {
	name string
	p    Profile
}{
	{"calm", Profile{
		PGoodBad: 0.005, PBadGood: 0.4, LossGood: 0.002, LossBad: 0.2,
		TriggerMissProb: 0.002, BALossProb: 0.005,
		BrownoutProb: 0.01, BrownoutSubframes: 4,
	}},
	{"bursty", Profile{
		PGoodBad: 0.01, PBadGood: 0.25, LossGood: 0.002, LossBad: 0.6,
		TriggerMissProb: 0.01, BALossProb: 0.02,
		BrownoutProb: 0.05, BrownoutSubframes: 8,
	}},
	{"microwave", Profile{
		PGoodBad: 0.004, PBadGood: 0.08, LossGood: 0.002, LossBad: 0.9,
		TriggerMissProb: 0.02, BALossProb: 0.03,
		BrownoutProb: 0.05, BrownoutSubframes: 8,
	}},
	{"harsh", Profile{
		PGoodBad: 0.03, PBadGood: 0.15, LossGood: 0.01, LossBad: 0.8,
		TriggerMissProb: 0.05, BALossProb: 0.05,
		BrownoutProb: 0.1, BrownoutSubframes: 12,
	}},
}

// Named returns a preset profile by name. The empty string and "off" are
// not profiles; callers model "no faults" by not attaching an Injector.
func Named(name string) (Profile, error) {
	for _, e := range profiles {
		if e.name == name {
			return e.p, nil
		}
	}
	return Profile{}, fmt.Errorf("fault: unknown profile %q (have %v)", name, Names())
}

// Names lists the preset profiles, mild to severe.
func Names() []string {
	out := make([]string, len(profiles))
	for i, e := range profiles {
		out[i] = e.name
	}
	sort.Strings(out)
	return out
}

// GilbertElliott is the two-state burst channel, reusable on its own for
// bit-level coding experiments.
type GilbertElliott struct {
	PGoodBad, PBadGood float64
	LossGood, LossBad  float64
	bad                bool
}

// Step advances the chain one symbol and reports whether that symbol is
// hit, drawing from rng.
func (g *GilbertElliott) Step(rng *rand.Rand) bool {
	if g.bad {
		if stats.Bernoulli(rng, g.PBadGood) {
			g.bad = false
		}
	} else if stats.Bernoulli(rng, g.PGoodBad) {
		g.bad = true
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return stats.Bernoulli(rng, p)
}

// Injector draws one deployment's fault stream. Attach it to a
// core.System (the Faults field); it is not safe for concurrent use, like
// the System it serves.
type Injector struct {
	Profile Profile
	chain   GilbertElliott
	rng     *rand.Rand
}

// NewInjector builds an injector seeded independently of the system's own
// RNG; derive seed via a labeled stats.SubSeed path.
func NewInjector(p Profile, seed int64) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		Profile: p,
		chain: GilbertElliott{
			PGoodBad: p.PGoodBad, PBadGood: p.PBadGood,
			LossGood: p.LossGood, LossBad: p.LossBad,
		},
		rng: stats.NewRNG(seed),
	}, nil
}

// Release ends the injector's fault stream (stats.Release): a later
// draw panics.
func (in *Injector) Release() { stats.Release(in.rng) }

// SubframeLost steps the burst chain one subframe and reports whether the
// interferer destroyed it at the AP.
func (in *Injector) SubframeLost() bool {
	return in.chain.Step(in.rng)
}

// TriggerMissed reports whether this round's trigger is erased at the tag.
func (in *Injector) TriggerMissed() bool {
	return stats.Bernoulli(in.rng, in.Profile.TriggerMissProb)
}

// BALost reports whether this round's block ACK never reaches the client.
func (in *Injector) BALost() bool {
	return stats.Bernoulli(in.rng, in.Profile.BALossProb)
}

// BrownoutWindow draws this round's harvester undervoltage window over n
// data subframes. When active, subframes [start, start+length) — clipped
// to n — see a frozen switch. The draw consumes RNG state even when the
// window misses, keeping the fault stream independent of round outcomes.
func (in *Injector) BrownoutWindow(n int) (start, length int, active bool) {
	if in.Profile.BrownoutProb <= 0 || n <= 0 {
		return 0, 0, false
	}
	active = stats.Bernoulli(in.rng, in.Profile.BrownoutProb)
	start = in.rng.Intn(n)
	if !active {
		return 0, 0, false
	}
	length = in.Profile.BrownoutSubframes
	if start+length > n {
		length = n - start
	}
	return start, length, true
}
