package experiments

import (
	"context"
	"fmt"
	"strings"

	"witag/internal/obs"
	"witag/internal/sim"
	"witag/internal/stats"
)

// Figure 5: BER and throughput of WiTAG versus the tag's distance from the
// client, with the client and AP 8 m apart. The paper runs 4 one-minute
// measurements at each of 7 locations; the simulation runs cfg.Runs runs
// of cfg.Rounds query rounds each.

// Figure5Config parameterises the sweep.
type Figure5Config struct {
	Seed    int64
	Runs    int // measurement repetitions per location (paper: 4)
	Round   int // query rounds per run (scale stand-in for "one minute")
	Workers int // concurrent trial workers; <= 0 means runtime.NumCPU()
	// Campaign, when non-nil, instruments the sweep (nil: off).
	Campaign *obs.Campaign
}

// Figure5Point is one distance's measurement.
type Figure5Point struct {
	DistanceM      float64
	BER            float64
	BERStd         float64 // across runs
	ThroughputKbps float64 // successfully delivered tag bits per second
	DetectionRate  float64
}

// Figure5Result is the whole sweep. Runs is the per-point trial count —
// the n the regression sentinel's Welch test needs next to each point's
// BER mean and std.
type Figure5Result struct {
	Points      []Figure5Point
	RawRateKbps float64 // tag bits offered per second (error-free ceiling)
	Runs        int     // measurement repetitions behind every point
}

// Figure5Ctx runs the sweep on the shared trial runner, with
// cancellation. RawRateKbps, the error-free ceiling, is arithmetic on the
// testbed's query shape (losTagRate); only the points are measured.
func Figure5Ctx(ctx context.Context, cfg Figure5Config) (*Figure5Result, error) {
	if cfg.Runs < 1 || cfg.Round < 1 {
		return nil, fmt.Errorf("experiments: need ≥1 run and ≥1 round, got %d×%d", cfg.Runs, cfg.Round)
	}
	distances := []float64{1, 2, 3, 4, 5, 6, 7}
	res := &Figure5Result{Runs: cfg.Runs}

	raw, err := losTagRate()
	if err != nil {
		return nil, err
	}
	res.RawRateKbps = raw / 1000

	trials := make([]sim.Trial, 0, len(distances)*cfg.Runs)
	for _, d := range distances {
		for run := 0; run < cfg.Runs; run++ {
			t := figure5Trial(cfg.Seed, d, fmt.Sprintf("d=%g", d), fmt.Sprintf("run=%d", run), cfg.Round)
			t.ID = len(trials)
			trials = append(trials, t)
		}
	}
	runStats, err := sim.Runner{Workers: cfg.Workers, Campaign: cfg.Campaign}.RunTrials(ctx, trials)
	if err != nil {
		return nil, err
	}

	for di, d := range distances {
		var bers []float64
		var det, rate float64
		for run := 0; run < cfg.Runs; run++ {
			rs := runStats[di*cfg.Runs+run]
			bers = append(bers, rs.BER)
			det += rs.DetectionRate
			if rs.Airtime > 0 {
				goodBits := float64(rs.Bits - rs.Errors)
				rate += goodBits / rs.Airtime.Seconds() / 1000
			}
		}
		res.Points = append(res.Points, Figure5Point{
			DistanceM:      d,
			BER:            stats.Mean(bers),
			BERStd:         stats.StdDev(bers),
			ThroughputKbps: rate / float64(cfg.Runs),
			DetectionRate:  det / float64(cfg.Runs),
		})
	}
	return res, nil
}

// figure5Trial is one run at distance d under the root seed: the trial
// Figure5Ctx runs and forensic replay rebuilds from its labels.
func figure5Trial(seed int64, d float64, dLabel, runLabel string, rounds int) sim.Trial {
	return sim.Trial{
		Build:    losBuild(d, stats.SubSeed(seed, "fig5", dLabel, runLabel), nil),
		Rounds:   rounds,
		DataSeed: stats.SubSeed(seed, "fig5", dLabel, runLabel, "data"),
		Labels:   "fig5/" + dLabel + "/" + runLabel,
	}
}

// Render prints the figure as the paper's two series.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: BER and throughput of WiTAG (client and AP 8 m apart)\n")
	fmt.Fprintf(&b, "%-22s %-10s %-10s %-18s %-10s\n",
		"Tag-to-client (m)", "BER", "±std", "Throughput (Kbps)", "Detect")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-22.0f %-10.4f %-10.4f %-18.1f %-10.2f\n",
			p.DistanceM, p.BER, p.BERStd, p.ThroughputKbps, p.DetectionRate)
	}
	fmt.Fprintf(&b, "offered tag rate: %.1f Kbps\n", r.RawRateKbps)
	b.WriteString("paper: BER ≈0.01 near the AP/client, slightly higher mid-span;\n")
	b.WriteString("       throughput 40 Kbps at the ends dipping to ≈39 Kbps mid-span\n")
	return b.String()
}

// ShapeChecks verifies the qualitative claims the paper makes about this
// figure; the bench harness asserts them so regressions in the model
// surface as failures, not silently different tables.
func (r *Figure5Result) ShapeChecks() error {
	if len(r.Points) != 7 {
		return fmt.Errorf("experiments: expected 7 distances, got %d", len(r.Points))
	}
	end := (r.Points[0].BER + r.Points[6].BER) / 2
	mid := r.Points[3].BER
	if end > 0.03 {
		return fmt.Errorf("experiments: endpoint BER %v too high (paper ≈0.01)", end)
	}
	if mid <= end {
		return fmt.Errorf("experiments: mid-span BER %v not above endpoint BER %v", mid, end)
	}
	if mid > 0.2 {
		return fmt.Errorf("experiments: mid-span BER %v implausibly high", mid)
	}
	if r.RawRateKbps < 35 || r.RawRateKbps > 46 {
		return fmt.Errorf("experiments: offered rate %v Kbps, paper reports ≈40", r.RawRateKbps)
	}
	for _, p := range r.Points {
		if p.ThroughputKbps < 0.9*r.RawRateKbps*(1-p.BER) {
			return fmt.Errorf("experiments: throughput at %v m inconsistent with BER", p.DistanceM)
		}
	}
	return nil
}
