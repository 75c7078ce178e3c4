package experiments

import (
	"context"
	"fmt"
	"strings"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/dot11"
	"witag/internal/obs"
	"witag/internal/phy"
	"witag/internal/sim"
	"witag/internal/stats"
)

// Figure 6: CDF of BER in the non-line-of-sight deployments of Figure 4.
// The paper runs 60 one-minute measurements per location while students
// work and walk around; the line of sight is blocked by cabinets and
// walls. Reported: 90th-percentile BER 0.007 at location A (≈7 m) and
// 0.018 at location B (≈17 m).

// Figure6Config parameterises one location's measurement campaign.
type Figure6Config struct {
	Seed    int64
	Runs    int // measurement repetitions (paper: 60)
	Round   int // query rounds per run
	Workers int // concurrent trial workers; <= 0 means runtime.NumCPU()
	// Campaign, when non-nil, instruments the campaign (nil: off).
	Campaign *obs.Campaign
}

// DefaultFigure6Config mirrors the paper at simulation-friendly scale.
func DefaultFigure6Config() Figure6Config {
	return Figure6Config{Seed: 4242, Runs: 60, Round: 250}
}

// Figure6Result is one location's CDF.
type Figure6Result struct {
	Location NLoSLocation
	RunBERs  []float64
	CDF      *stats.CDF
	P50      float64
	P90      float64
}

// Figure6Series is the machine-readable BENCH series for one location.
// It carries the raw per-run BERs (so the regression sentinel can
// bootstrap them) and the trial count explicitly.
type Figure6Series struct {
	Location string    `json:"location"`
	Runs     int       `json:"runs"`
	RunBERs  []float64 `json:"runBERs"`
	P50      float64   `json:"p50"`
	P90      float64   `json:"p90"`
}

// Series freezes the result into its artifact schema.
func (r *Figure6Result) Series() Figure6Series {
	return Figure6Series{
		Location: string(rune(r.Location)),
		Runs:     len(r.RunBERs),
		RunBERs:  r.RunBERs,
		P50:      r.P50,
		P90:      r.P90,
	}
}

// Figure6Ctx runs the campaign for one location on the shared trial
// runner, with cancellation.
func Figure6Ctx(ctx context.Context, loc NLoSLocation, cfg Figure6Config) (*Figure6Result, error) {
	if cfg.Runs < 2 || cfg.Round < 1 {
		return nil, fmt.Errorf("experiments: need ≥2 runs and ≥1 round, got %d×%d", cfg.Runs, cfg.Round)
	}
	res := &Figure6Result{Location: loc}
	locLabel := fmt.Sprintf("loc=%c", loc)
	trials := make([]sim.Trial, cfg.Runs)
	for run := range trials {
		trials[run] = figure6Trial(loc, cfg.Seed, locLabel, fmt.Sprintf("run=%d", run), cfg.Round)
		trials[run].ID = run
	}
	runStats, err := sim.Runner{Workers: cfg.Workers, Campaign: cfg.Campaign}.RunTrials(ctx, trials)
	if err != nil {
		return nil, err
	}
	res.RunBERs = make([]float64, len(runStats))
	for i, rs := range runStats {
		res.RunBERs[i] = rs.BER
	}
	res.CDF = stats.NewCDF(res.RunBERs)
	if res.P50, err = res.CDF.Quantile(0.5); err != nil {
		return nil, err
	}
	if res.P90, err = res.CDF.Quantile(0.9); err != nil {
		return nil, err
	}
	return res, nil
}

// figure6Trial is one run of location loc's campaign at that campaign's
// seed: the trial Figure6Ctx runs and forensic replay rebuilds from its
// labels.
func figure6Trial(loc NLoSLocation, seed int64, locLabel, runLabel string, rounds int) sim.Trial {
	return sim.Trial{
		Build: func() (*core.System, *channel.Environment, error) {
			return nlosRunDeployment(loc, seed, locLabel, runLabel)
		},
		Rounds:   rounds,
		DataSeed: stats.SubSeed(seed, "fig6", locLabel, runLabel, "data"),
		Labels:   "fig6/" + locLabel + "/" + runLabel,
	}
}

// nlosRunDeployment builds one run's deployment: the testbed, that
// minute's ambient interference, the client's robust-rate calibration and
// the post-calibration wall-penetration drift. All randomness is drawn
// from per-run labeled seeds, so each run is independent of every other
// and of the order trials execute in.
func nlosRunDeployment(loc NLoSLocation, rootSeed int64, locLabel, runLabel string) (*core.System, *channel.Environment, error) {
	sys, env, err := NLoSTestbed(loc, stats.SubSeed(rootSeed, "fig6", locLabel, runLabel))
	if err != nil {
		return nil, nil, err
	}
	// Interference varies between runs: some minutes the neighbours'
	// traffic (or the microwave) is busier. Drawn once per run, as in
	// any campus building.
	ambRng := stats.NewRNG(stats.SubSeed(rootSeed, "fig6", locLabel, runLabel, "ambient"))
	sys.AmbientLossProb = stats.Exponential(ambRng, 0.005)
	// §4.1's robust-rate rule: the client measures the link at the
	// start of the run and picks the fastest MCS with near-zero
	// subframe loss, keeping a 1.5 dB fading margin. At location A
	// the link has >20 dB of headroom; at B the chosen rate sits
	// close to the error cliff.
	snr, err := env.SNR(sys.ClientPos, sys.APPos)
	if err != nil {
		return nil, nil, err
	}
	const subBits = 400 // ≈ one-tick subframe, in bits
	if mcs, err := phy.RobustMCS(snr/1.6, subBits, 0.9995); err == nil {
		sys.Spec.MCS = mcs
	} else {
		mcs0, err := dot11.HTMCS(0)
		if err != nil {
			return nil, nil, err
		}
		sys.Spec.MCS = mcs0
	}
	if err := sys.Reshape(); err != nil {
		return nil, nil, err
	}
	// After the client calibrates, the minute's conditions drift:
	// wall penetration wanders a few dB as doors, furniture and
	// crowds move. With B's thin margin this drift is what pushes its
	// bad minutes over the cliff — the tail of the paper's Figure 6.
	if len(env.Walls) > 0 {
		jitter := stats.Gaussian(ambRng, 0, 1.6)
		if jitter > 2.2 {
			jitter = 2.2
		}
		if jitter < -2.2 {
			jitter = -2.2
		}
		env.Walls[0].AttenuationDb += jitter
	}
	return sys, env, nil
}

// Render prints the CDF series.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: BER CDF, NLoS location %c (%d runs)\n", r.Location, len(r.RunBERs))
	b.WriteString(r.CDF.Render(40, fmt.Sprintf("location %c", r.Location)))
	fmt.Fprintf(&b, "p50 = %.4f   p90 = %.4f\n", r.P50, r.P90)
	switch r.Location {
	case LocationA:
		b.WriteString("paper: 90th-percentile BER 0.007 at location A (≈7 m, one wall)\n")
	case LocationB:
		b.WriteString("paper: 90th-percentile BER 0.018 at location B (≈17 m, cabinets+walls)\n")
	}
	return b.String()
}

// CheckFigure6Shape asserts the paper's qualitative claims: low BER at
// all times, and location B strictly worse than A.
func CheckFigure6Shape(a, b *Figure6Result) error {
	if a.P90 > 0.03 {
		return fmt.Errorf("experiments: location A p90 %v too high (paper 0.007)", a.P90)
	}
	if b.P90 > 0.06 {
		return fmt.Errorf("experiments: location B p90 %v too high (paper 0.018)", b.P90)
	}
	if b.P90 <= a.P90 {
		return fmt.Errorf("experiments: B's p90 (%v) should exceed A's (%v)", b.P90, a.P90)
	}
	// "Low BER at all times": the paper's CDF x-axis tops out at 0.025,
	// so both campaigns' p95 must stay under 0.06 and every run under a
	// looser hard ceiling, which a bad minute can still cross: at
	// witag-bench's defaults 17 of seeds 0–59 fail a check here (10 the
	// ceiling, 4 B's p90 not above A's, 3 the p95 tail).
	for _, r := range []*Figure6Result{a, b} {
		p95, err := r.CDF.Quantile(0.95)
		if err != nil {
			return err
		}
		if p95 > 0.06 {
			return fmt.Errorf("experiments: location %c p95 BER %v — tail too heavy", r.Location, p95)
		}
	}
	max, err := stats.Max(append(append([]float64(nil), a.RunBERs...), b.RunBERs...))
	if err != nil {
		return err
	}
	if max > 0.25 {
		return fmt.Errorf("experiments: a run hit BER %v — 'low BER at all times' violated", max)
	}
	return nil
}
