// Command witag-sim runs a custom WiTAG deployment: place the client, AP
// and tag anywhere, optionally add walls and encryption, and measure BER,
// detection rate and tag data rate.
//
// Usage examples:
//
//	witag-sim -ap 8,0 -tag 2,0.3 -rounds 2000
//	witag-sim -ap 17,0 -tag 1,0.3 -walls "3.5:7,9:9,13:6" -rounds 1000
//	witag-sim -cipher ccmp -rounds 500
//	witag-sim -fault bursty -rounds 1000      # burst interference injected
//	witag-sim -runs 16 -parallel 8            # Monte-Carlo campaign
//
// With -runs N > 1 the deployment is measured N times with independent
// per-run seeds (people walk differently, tag data differs), fanned
// across -parallel workers by internal/sim; the summary reports the mean
// and spread across runs. Results are identical for every worker count.
//
// The deployment runs as the one experiment "sim" of a suite, through the
// batch path witag-bench's experiments take (internal/clirun), so it
// takes the same batch flags and writes the same artifacts, named for
// "sim". A run that fails prints "witag-sim: sim: <err>" on stderr, then
// "witag-sim: failed experiments: sim", and exits 1; a bad deployment
// flag is refused, naming the flag, before any campaign starts.
//
// Artifacts and observability (all opt-in, none changes any result byte):
//
//	-json DIR             write BENCH_sim.json (the deployment's
//	                      configuration and each run's stats or transfer
//	                      outcome), BENCH_sim.metrics.json,
//	                      PROF_sim.json and a RUNS.jsonl ledger line
//	-profile DIR          capture cpu_sim.pprof across the campaign, then
//	                      heap_sim.pprof and allocs_sim.pprof after a
//	                      forced GC, and print the phase-attribution
//	                      table on stderr
//	-metrics-addr :9090   serve the run's campaign for the lifetime of the
//	                      run: Prometheus text at /metrics, campaign list
//	                      and status at /campaigns, a live SSE event
//	                      stream at /campaigns/sim/events, plus
//	                      /debug/vars and /debug/pprof/ (":0" picks a
//	                      port, printed on stderr)
//	-trace-out DIR        record one structured event per query round (and
//	                      per injected control-plane fault) into a bounded
//	                      ring (-trace-cap events), written as
//	                      TRACE_sim.jsonl under DIR; the "round" event
//	                      count equals runs×rounds
//	-progress             live runs/sec and ETA on stderr
//	-timeline             capture a windowed metric time-series (one
//	                      logical window every -timeline-window completed
//	                      runs) and write it as TL_sim.jsonl under -json
//	                      DIR; logical windows are deterministic across
//	                      -parallel
//	-log run.jsonl        write the campaign's structured JSONL log there
//	                      (-log-level picks the floor: debug…error)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"

	"witag/internal/buildinfo"
	"witag/internal/channel"
	"witag/internal/cliflags"
	"witag/internal/clirun"
	"witag/internal/experiments"
	"witag/internal/fault"
	"witag/internal/link"
	"witag/internal/traffic"
)

// deployment is the deployment flags: the geometry as typed, and the
// rest of the experiment's configuration as parsed by the flag package.
type deployment struct {
	apStr, tagStr, wallsStr string
	experiments.DeploymentConfig
}

func main() {
	var d deployment
	flag.StringVar(&d.apStr, "ap", "8,0", "AP position as x,y metres")
	flag.StringVar(&d.tagStr, "tag", "1,0.3", "tag position as x,y metres")
	flag.StringVar(&d.wallsStr, "walls", "", "comma-separated x:attenuationDb vertical walls")
	flag.StringVar(&d.Cipher, "cipher", "open", "link cipher: open, wep, ccmp")
	flag.StringVar(&d.Fault, "fault", "", "fault profile injecting burst interference: "+strings.Join(fault.Names(), ", ")+" (empty: clean channel)")
	flag.StringVar(&d.Traffic, "traffic", "", "ambient-traffic profile masking colliding subframes: "+strings.Join(traffic.Names(), ", ")+" (empty: no ambient load)")
	flag.StringVar(&d.Transfer, "transfer", "", "measure payload transfers instead of raw rounds, using this scheme: "+strings.Join(experiments.CodingSchemes, ", ")+" (empty: round campaign)")
	flag.IntVar(&d.PayloadBytes, "payload", 96, "payload bytes per transfer (with -transfer)")
	flag.Float64Var(&d.Gain, "gain", experiments.TagGain, "tag effective reflection gain")
	flag.IntVar(&d.Rounds, "rounds", 1000, "query rounds per run")
	flag.IntVar(&d.Runs, "runs", 1, "independent measurement runs")
	flag.Int64Var(&d.Seed, "seed", 1, "root random seed")
	flag.Float64Var(&d.TempC, "temp", 25, "ambient temperature °C")
	var cfg clirun.Config
	cfg.Flags.Register(flag.CommandLine)
	version := flag.Bool("version", false, "print build provenance (git SHA, Go version) and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "witag-sim")
		return
	}

	clirun.Main("witag-sim", func(ctx context.Context) error {
		return run(ctx, d, cfg, os.Stdout, os.Stderr)
	})
}

// run checks every deployment flag before any campaign starts, naming
// the flag at fault — a typo must produce a usage error, never a partial
// campaign — and runs the deployment as a one-entry suite through the
// batch path.
func run(ctx context.Context, d deployment, cfg clirun.Config, stdout, stderr io.Writer) error {
	if d.Runs < 1 {
		return fmt.Errorf("need at least 1 run, got %d", d.Runs)
	}
	dc, err := d.parse()
	if err != nil {
		return err
	}
	for _, v := range []error{
		cliflags.FaultProfile("-fault", dc.Fault, true),
		cliflags.TrafficProfile("-traffic", dc.Traffic, true, false),
		cliflags.Choice("-transfer", dc.Transfer, experiments.CodingSchemes, true),
	} {
		if v != nil {
			return v
		}
	}
	if dc.Transfer != "" && (dc.PayloadBytes < 1 || dc.PayloadBytes > link.MaxTransfer) {
		return fmt.Errorf("payload %d bytes outside [1,%d]", dc.PayloadBytes, link.MaxTransfer)
	}
	cfg.Tool, cfg.Campaign, cfg.ProgressNoun = "witag-sim", "sim", "runs"
	cfg.StartAttrs = []any{
		slog.String("ap", d.apStr), slog.String("tag", d.tagStr),
		slog.String("cipher", dc.Cipher), slog.Int64("seed", dc.Seed),
		slog.Int("runs", dc.Runs), slog.Int("rounds", dc.Rounds),
	}
	cfg.SuiteConfig = experiments.SuiteConfig{
		Seed: dc.Seed, Runs: dc.Runs, Rounds: dc.Rounds,
		FaultProfile: dc.Fault, Scheme: dc.Transfer, Traffic: dc.Traffic,
	}
	return clirun.RunSuite(ctx, cfg, []experiments.Experiment{experiments.Deployment(dc)}, stdout, stderr)
}

// parse parses the deployment's positions and walls into its
// configuration and checks every number the model takes from the flags,
// naming the flag at fault: a non-finite coordinate, wall, loss or
// temperature, or a non-finite or negative gain, would run a whole
// campaign on a meaningless channel.
func (d deployment) parse() (experiments.DeploymentConfig, error) {
	s := d.DeploymentConfig
	var err error
	if s.AP, err = parsePoint(d.apStr); err != nil {
		return s, fmt.Errorf("-ap: %w", err)
	}
	if s.Tag, err = parsePoint(d.tagStr); err != nil {
		return s, fmt.Errorf("-tag: %w", err)
	}
	if d.wallsStr != "" {
		for _, w := range strings.Split(d.wallsStr, ",") {
			parts := strings.Split(w, ":")
			if len(parts) != 2 {
				return s, fmt.Errorf("-walls: wall %q must be x:attenuationDb", w)
			}
			var xa [2]float64
			for i, p := range parts {
				if xa[i], err = parseFinite(p); err != nil {
					return s, fmt.Errorf("-walls: wall %q: %w", w, err)
				}
			}
			s.Walls = append(s.Walls, xa)
		}
	}
	if math.IsNaN(s.TempC) || math.IsInf(s.TempC, 0) {
		return s, fmt.Errorf("-temp: %v °C is not finite", s.TempC)
	}
	if !(s.Gain >= 0) || math.IsInf(s.Gain, 0) {
		return s, fmt.Errorf("-gain: %v must be finite and >= 0", s.Gain)
	}
	return s, nil
}

func parsePoint(s string) (channel.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return channel.Point{}, fmt.Errorf("point %q must be x,y", s)
	}
	x, err := parseFinite(parts[0])
	if err != nil {
		return channel.Point{}, fmt.Errorf("point %q: %w", s, err)
	}
	y, err := parseFinite(parts[1])
	if err != nil {
		return channel.Point{}, fmt.Errorf("point %q: %w", s, err)
	}
	return channel.Point{X: x, Y: y}, nil
}

// parseFinite parses a float, surrounding spaces allowed, and refuses
// NaN and ±Inf.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%v is not finite", v)
	}
	return v, nil
}
