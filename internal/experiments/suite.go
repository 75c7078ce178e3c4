package experiments

import (
	"context"
	"fmt"
	"strings"

	"witag/internal/sim"
)

// The suite: one table of every experiment witag-bench runs, in run
// order. Each entry turns the suite's settings into its experiment's own
// configuration, so a rule such as Figure 6's location-B seed lives in
// exactly one place, where forensic replay can read it too.

// SuiteConfig is what witag-bench's flags set for the suite; the worker
// count and the campaign ride on the sim.Runner each entry is handed.
type SuiteConfig struct {
	Seed         int64
	Runs         int    // Figure 5 measurement repetitions per distance
	Rounds       int    // query rounds per measurement run
	FaultProfile string // robustness's base fault.Named profile
	Transfers    int    // robustness transfers per sweep point per mode
	Scheme       string // coding sweep scheme: "all" or one of CodingSchemes
	Traffic      string // coding sweep traffic profile: "all" or one traffic.Names preset
}

// Result is what one suite experiment produced.
type Result struct {
	Render      func() string // the printed table
	ShapeChecks func() error  // the paper's qualitative claims; nil: none
	Series      any           // the value written as the BENCH series
}

// Experiment is one entry of the suite table.
type Experiment struct {
	Name string
	// Run runs the experiment on r; a failed run returns a nil or partial Result.
	Run func(ctx context.Context, r sim.Runner, cfg SuiteConfig) (*Result, error)
}

// Suite is every experiment witag-bench runs, in run order.
var Suite = []Experiment{
	{"fig3", func(ctx context.Context, r sim.Runner, cfg SuiteConfig) (*Result, error) {
		return whole(Figure3Ctx(ctx, r, cfg.Seed))
	}},
	{"fig5", func(ctx context.Context, r sim.Runner, cfg SuiteConfig) (*Result, error) {
		return whole(Figure5Ctx(ctx, Figure5Config{Seed: cfg.Seed, Runs: cfg.Runs, Round: cfg.Rounds, Workers: r.Workers, Campaign: r.Campaign}))
	}},
	{"fig6", runFigure6},
	{"s41", func(ctx context.Context, r sim.Runner, _ SuiteConfig) (*Result, error) {
		return whole(Section41SweepCtx(ctx, r))
	}},
	{"compare", func(ctx context.Context, _ sim.Runner, _ SuiteConfig) (*Result, error) {
		return whole(PriorSystemComparison(ctx))
	}},
	{"power", func(ctx context.Context, r sim.Runner, cfg SuiteConfig) (*Result, error) {
		return whole(Section7PowerCtx(ctx, r, cfg.Seed))
	}},
	{"ablations", runAblations},
	{"robustness", func(ctx context.Context, r sim.Runner, cfg SuiteConfig) (*Result, error) {
		rcfg := DefaultRobustnessConfig()
		rcfg.Seed = cfg.Seed
		rcfg.Workers = r.Workers
		rcfg.Campaign = r.Campaign
		rcfg.BaseProfile = cfg.FaultProfile
		rcfg.Transfers = cfg.Transfers
		return whole(RobustnessCtx(ctx, rcfg))
	}},
	{"coding", runCoding},
}

// whole wraps an experiment's result whose BENCH series is the whole
// result.
func whole[T interface {
	Render() string
	ShapeChecks() error
}](res T, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{Render: res.Render, ShapeChecks: res.ShapeChecks, Series: res}, nil
}

// figure6Seed is a location's Figure 6 root seed under the suite seed:
// B runs at seed + 1, so the two locations never share a stream.
func figure6Seed(seed int64, loc NLoSLocation) int64 {
	if loc == LocationB {
		return seed + 1
	}
	return seed
}

// runFigure6 runs both locations at half the suite's rounds per run (at
// least 10), each at its figure6Seed, and renders A then B.
func runFigure6(ctx context.Context, r sim.Runner, cfg SuiteConfig) (*Result, error) {
	fcfg := DefaultFigure6Config()
	fcfg.Workers = r.Workers
	fcfg.Campaign = r.Campaign
	fcfg.Round = max(cfg.Rounds/2, 10)
	fcfg.Seed = figure6Seed(cfg.Seed, LocationA)
	a, err := Figure6Ctx(ctx, LocationA, fcfg)
	if err != nil {
		return nil, err
	}
	fcfg.Seed = figure6Seed(cfg.Seed, LocationB)
	b, err := Figure6Ctx(ctx, LocationB, fcfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Render:      func() string { return a.Render() + "\n" + b.Render() },
		ShapeChecks: func() error { return CheckFigure6Shape(a, b) },
		Series:      map[string]Figure6Series{"A": a.Series(), "B": b.Series()},
	}, nil
}

// runAblations runs every ablation in table order, each sized from the
// suite's rounds and checked as it finishes, so the Result has no
// ShapeChecks; the series keys each table by its label. The first
// failure ends the run, wrapped as "<label>: %w", with the tables that
// finished before it still in the Result.
func runAblations(ctx context.Context, r sim.Runner, cfg SuiteConfig) (*Result, error) {
	var tables []string
	series := map[string]*AblationResult{}
	res := &Result{Render: func() string { return strings.Join(tables, "\n") }, Series: series}
	for i := range ablations {
		a := &ablations[i]
		t, err := a.run(ctx, r, cfg.Seed, a.size(cfg.Rounds))
		if err != nil {
			if len(tables) == 0 {
				res = nil
			}
			return res, fmt.Errorf("%s: %w", a.label, err)
		}
		tables = append(tables, t.Render())
		series[a.label] = t
	}
	return res, nil
}

// runCoding runs the coding sweep, narrowed to cfg.Scheme and to the
// profiles composed with cfg.Traffic unless they are "all". The shape
// claims compare all three schemes across the full grid, so a narrowed
// run is exploration, not a gate: it checks no shape.
func runCoding(ctx context.Context, r sim.Runner, cfg SuiteConfig) (*Result, error) {
	ccfg := DefaultAdaptiveCodingConfig()
	ccfg.Seed = cfg.Seed
	ccfg.Workers = r.Workers
	ccfg.Campaign = r.Campaign
	if cfg.Scheme != "all" {
		ccfg.Schemes = []string{cfg.Scheme}
	}
	if cfg.Traffic != "all" {
		var kept []CodingProfile
		for _, p := range ccfg.Profiles {
			if p.Traffic == cfg.Traffic {
				kept = append(kept, p)
			}
		}
		ccfg.Profiles = kept // none for an unknown profile: the sweep refuses it
	}
	res, err := whole(AdaptiveCodingCtx(ctx, ccfg))
	if res != nil && (cfg.Scheme != "all" || cfg.Traffic != "all") {
		res.ShapeChecks = nil
	}
	return res, err
}
