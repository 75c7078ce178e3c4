package experiments

import (
	"context"
	"fmt"
	"strings"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/crypto80211"
	"witag/internal/fault"
	"witag/internal/phy"
	"witag/internal/sim"
	"witag/internal/stats"
)

// DeploymentConfig is a deployment of the user's own and the campaign
// measured on it: everything witag-sim's flags set, so its BENCH series
// alone can re-run the invocation.
type DeploymentConfig struct {
	AP, Tag channel.Point // the client sits at the origin
	Walls   [][2]float64  // vertical walls: x position (m), attenuation (dB)
	Cipher  string        // link cipher, one of Ciphers
	Fault   string        // fault.Named profile; "" for a clean channel
	Traffic string        // traffic.Named profile; "" for no ambient load
	Gain    float64       // tag effective reflection gain
	TempC   float64       // ambient temperature, °C
	// Transfer, when set to one of CodingSchemes, moves one PayloadBytes
	// payload per run with that scheme instead of measuring Rounds query
	// rounds.
	Transfer     string
	PayloadBytes int
	Seed         int64
	Runs         int
	Rounds       int
}

// Ciphers names the link ciphers a deployment takes: open, WEP and CCMP
// (WPA2), the names newCipher maps.
var Ciphers = []string{"open", "wep", "ccmp"}

// newCipher returns the link cipher named by one of Ciphers: nil for an
// open network, WEP under wepKey, or CCMP under an all-zero temporal key
// for the client's address.
func newCipher(name string, wepKey []byte) (crypto80211.Cipher, error) {
	switch name {
	case "open":
		return nil, nil
	case "wep":
		return crypto80211.NewWEP(wepKey, 0)
	case "ccmp":
		return crypto80211.NewCCMP(make([]byte, 16), [6]byte{2, 0, 0, 0, 0, 0x10}, 0)
	}
	return nil, fmt.Errorf("unknown cipher %q (valid: %s)", name, strings.Join(Ciphers, ", "))
}

// DeploymentSeries is the deployment's BENCH series: its configuration
// and each run's stats, or each run's transfer outcome in transfer mode.
type DeploymentSeries struct {
	Config    DeploymentConfig
	Runs      []sim.RunStats    `json:",omitempty"`
	Transfers []TransferOutcome `json:",omitempty"`
}

// Deployment is the experiment "sim": cfg.Runs independent runs of the
// deployment, each from its own SubSeed(cfg.Seed, "sim", "run=i") tree,
// fanned across the runner's workers. It is not in Suite, and it ignores
// the SuiteConfig it is handed: cfg is its whole configuration.
func Deployment(cfg DeploymentConfig) Experiment {
	return Experiment{Name: "sim", Run: func(ctx context.Context, r sim.Runner, _ SuiteConfig) (*Result, error) {
		series := DeploymentSeries{Config: cfg}
		var text string
		var err error
		if cfg.Transfer != "" {
			series.Transfers, text, err = deploymentTransfers(ctx, r, cfg)
		} else {
			series.Runs, text, err = deploymentRounds(ctx, r, cfg)
		}
		if err != nil {
			return nil, err
		}
		// The batch loop's Fprintln ends the report's last line.
		text = strings.TrimSuffix(text, "\n")
		return &Result{Render: func() string { return text }, Series: series}, nil
	}}
}

// build constructs one run's deployment from its labeled seed.
func (d DeploymentConfig) build(envSeed int64) (*core.System, *channel.Environment, error) {
	ap := d.AP
	env := channel.NewEnvironment(envSeed)
	env.AddReflector(channel.Point{X: ap.X / 2, Y: 3.5}, 60)
	env.AddReflector(channel.Point{X: ap.X / 2, Y: -3.5}, 60)
	env.AddScatterers(4, 0, -3, ap.X, 3, 15, 1.0)
	for _, w := range d.Walls {
		env.AddWall(channel.Point{X: w[0], Y: -10}, channel.Point{X: w[0], Y: 10}, w[1], "wall")
	}

	sys, err := core.NewSystem(env, channel.Point{}, ap, d.Tag, d.Gain, envSeed)
	if err != nil {
		return nil, nil, err
	}
	sys.TempC = d.TempC
	c, err := newCipher(d.Cipher, []byte("witag"))
	if err != nil {
		return nil, nil, err
	}
	if err := sys.SetCipher(c); err != nil {
		return nil, nil, err
	}
	if err := attachLayers(sys, d.Fault, d.Traffic, func(leaf string) int64 { return stats.SubSeed(envSeed, leaf) }); err != nil {
		return nil, nil, err
	}
	return sys, env, nil
}

// trial is run i of the deployment, traced as "sim/run=i".
func (d DeploymentConfig) trial(i int) sim.Trial {
	runLabel := fmt.Sprintf("run=%d", i)
	return sim.Trial{
		Build: func() (*core.System, *channel.Environment, error) {
			return d.build(stats.SubSeed(d.Seed, "sim", runLabel))
		},
		Rounds:   d.Rounds,
		DataSeed: stats.SubSeed(d.Seed, "sim", runLabel, "data"),
		ID:       i,
		Labels:   "sim/" + runLabel,
	}
}

// deploymentRounds measures cfg.Rounds query rounds per run and renders
// the link report, one line each, with the mean and spread across runs.
func deploymentRounds(ctx context.Context, r sim.Runner, cfg DeploymentConfig) ([]sim.RunStats, string, error) {
	trials := make([]sim.Trial, cfg.Runs)
	for i := range trials {
		trials[i] = cfg.trial(i)
	}
	runStats, err := r.RunTrials(ctx, trials)
	if err != nil {
		return nil, "", err
	}

	var bers, dets []float64
	var bits, errBits int
	var airtime float64
	for _, rs := range runStats {
		bers = append(bers, rs.BER)
		dets = append(dets, rs.DetectionRate)
		bits += rs.Bits
		errBits += rs.Errors
		airtime += rs.Airtime.Seconds()
	}
	meanBER := stats.Mean(bers)
	meanDet := stats.Mean(dets)

	// Run 0's world once more, uninstrumented, for the static link report
	// (rate, SNR, query shape): it is identical across runs.
	text, err := sim.InWorld(cfg.trial(0), nil, func(sys *core.System, env *channel.Environment) (string, error) {
		rate, err := sys.TagRateBps()
		if err != nil {
			return "", err
		}
		snr, err := env.SNR(sys.ClientPos, sys.APPos)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "deployment: client (0,0), AP %v, tag %v, cipher %s\n", sys.APPos, sys.TagPos, cfg.Cipher)
		if cfg.Fault != "" {
			prof, err := fault.Named(cfg.Fault)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "fault profile     : %s (mean subframe loss %.3f, %.1f%% of time in burst)\n",
				cfg.Fault, prof.AvgLoss(), 100*prof.BadFraction())
		}
		fmt.Fprintf(&b, "link SNR          : %.1f dB\n", phy.SNRToDb(snr))
		fmt.Fprintf(&b, "query shape       : %d triggers + %d data subframes, %d tick(s)/subframe\n",
			sys.Spec.TriggerLen, sys.Spec.DataLen, sys.Spec.TicksPerSubframe)
		fmt.Fprintf(&b, "offered tag rate  : %.1f Kbps\n", rate/1e3)
		if cfg.Runs == 1 {
			fmt.Fprintf(&b, "rounds            : %d (%.1f s of airtime)\n", cfg.Rounds, airtime)
			fmt.Fprintf(&b, "detection rate    : %.3f\n", meanDet)
			fmt.Fprintf(&b, "tag BER           : %.5f (%d/%d bits)\n", meanBER, errBits, bits)
		} else {
			fmt.Fprintf(&b, "runs              : %d × %d rounds (%.1f s of airtime)\n", cfg.Runs, cfg.Rounds, airtime)
			fmt.Fprintf(&b, "detection rate    : %.3f (mean of %d runs)\n", meanDet, cfg.Runs)
			fmt.Fprintf(&b, "tag BER           : %.5f ± %.5f across runs (%d/%d bits)\n",
				meanBER, stats.StdDev(bers), errBits, bits)
		}
		fmt.Fprintf(&b, "delivered goodput : %.1f Kbps\n", rate/1e3*(1-meanBER))
		return b.String(), nil
	})
	if err != nil {
		return nil, "", err
	}
	return runStats, text, nil
}

// deploymentTransfers is transfer mode: each run moves one payload over
// the deployment with cfg.Transfer (the same transferers the adaptive-
// coding sweep compares), and the report gives delivery, rounds and
// goodput instead of raw BER.
func deploymentTransfers(ctx context.Context, r sim.Runner, cfg DeploymentConfig) ([]TransferOutcome, string, error) {
	outs, err := sim.Map(ctx, r, cfg.Runs, func(ctx context.Context, i int) (TransferOutcome, error) {
		runLabel := fmt.Sprintf("run=%d", i)
		t := cfg.trial(i)
		t.Labels += "/scheme=" + cfg.Transfer
		return sim.InWorld(t, r.Campaign.ObserverRef(), func(sys *core.System, env *channel.Environment) (TransferOutcome, error) {
			payload := stats.SeededBytes(stats.SubSeed(cfg.Seed, "sim", runLabel, "payload"), cfg.PayloadBytes)
			return RunTransfer(ctx, cfg.Transfer, sys, env, payload, stats.SubSeed(cfg.Seed, "sim", runLabel, "xfer"))
		})
	})
	if err != nil {
		return nil, "", err
	}

	delivered := 0
	var rounds, frames float64
	var airtime, goodput float64
	for _, o := range outs {
		if o.Delivered {
			delivered++
			goodput += o.GoodputBps()
		}
		rounds += float64(o.Rounds)
		frames += float64(o.FramesSent)
		airtime += o.Airtime.Seconds()
	}
	runs := cfg.Runs
	var b strings.Builder
	fmt.Fprintf(&b, "transfer scheme   : %s (%d-byte payloads)\n", cfg.Transfer, cfg.PayloadBytes)
	if cfg.Fault != "" {
		fmt.Fprintf(&b, "fault profile     : %s\n", cfg.Fault)
	}
	if cfg.Traffic != "" {
		fmt.Fprintf(&b, "traffic profile   : %s\n", cfg.Traffic)
	}
	fmt.Fprintf(&b, "transfers         : %d (%.1f s of airtime)\n", runs, airtime)
	fmt.Fprintf(&b, "delivery rate     : %.3f (%d/%d)\n", float64(delivered)/float64(runs), delivered, runs)
	fmt.Fprintf(&b, "mean rounds       : %.1f (%.1f frames)\n", rounds/float64(runs), frames/float64(runs))
	if delivered > 0 {
		fmt.Fprintf(&b, "delivered goodput : %.1f Kbps\n", goodput/float64(delivered)/1e3)
	}
	return outs, b.String(), nil
}
