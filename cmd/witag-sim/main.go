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
// Observability (all opt-in, none changes any result byte):
//
//	-metrics-addr :9090   serve the run's campaign for the lifetime of the
//	                      run: Prometheus text at /metrics, campaign list
//	                      and status at /campaigns, a live SSE event
//	                      stream at /campaigns/sim/events, plus
//	                      /debug/vars and /debug/pprof/ (":0" picks a
//	                      port, printed on stderr)
//	-trace trace.jsonl    record one structured event per query round (and
//	                      per injected control-plane fault) into a bounded
//	                      ring (-trace-cap events), written as JSONL on
//	                      exit; the "round" event count equals runs×rounds
//	-progress             live runs/sec and ETA on stderr
//	-timeline tl.jsonl    capture a windowed metric time-series (one
//	                      logical window every -timeline-window completed
//	                      runs) and write it as JSONL on exit; logical
//	                      windows are deterministic across -parallel
//	-cpuprofile cpu.pprof capture a CPU profile of the whole campaign
//	-memprofile mem.pprof capture an allocation profile (post-GC heap plus
//	                      cumulative allocs) at campaign end
//	-log run.jsonl        write the campaign's structured JSONL log there
//	                      and append a run record to RUNS.jsonl beside it
//	                      (-log-level picks the floor: debug…error)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"witag/internal/buildinfo"
	"witag/internal/channel"
	"witag/internal/cliflags"
	"witag/internal/clirun"
	"witag/internal/core"
	"witag/internal/crypto80211"
	"witag/internal/experiments"
	"witag/internal/fault"
	"witag/internal/link"
	"witag/internal/obs"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/traffic"
)

func main() {
	var (
		apFlag      = flag.String("ap", "8,0", "AP position as x,y metres")
		tagFlag     = flag.String("tag", "1,0.3", "tag position as x,y metres")
		wallsFlag   = flag.String("walls", "", "comma-separated x:attenuationDb vertical walls")
		cipherFlag  = flag.String("cipher", "open", "link cipher: open, wep, ccmp")
		faultFlag   = flag.String("fault", "", "fault profile injecting burst interference: "+strings.Join(fault.Names(), ", ")+" (empty: clean channel)")
		trafficFlag = flag.String("traffic", "", "ambient-traffic profile masking colliding subframes: "+strings.Join(traffic.Names(), ", ")+" (empty: no ambient load)")
		xferFlag    = flag.String("transfer", "", "measure payload transfers instead of raw rounds, using this scheme: "+strings.Join(experiments.CodingSchemes, ", ")+" (empty: round campaign)")
		payloadLen  = flag.Int("payload", 96, "payload bytes per transfer (with -transfer)")
		gain        = flag.Float64("gain", experiments.TagGain, "tag effective reflection gain")
		rounds      = flag.Int("rounds", 1000, "query rounds per run")
		runs        = flag.Int("runs", 1, "independent measurement runs")
		parallel    = flag.Int("parallel", 0, "concurrent trial workers; <= 0 means all CPUs")
		seed        = flag.Int64("seed", 1, "root random seed")
		tempC       = flag.Float64("temp", 25, "ambient temperature °C")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /campaigns and /debug/pprof/ on this address during the run (empty: off)")
		tracePath   = flag.String("trace", "", "write per-round trace events as JSONL to this file (empty: off)")
		traceCap    = flag.Int("trace-cap", obs.DefaultTraceCap, "trace ring capacity in events; oldest events are dropped beyond it")
		progress    = flag.Bool("progress", false, "live run progress (rate, ETA) on stderr")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file (empty: off)")
		memProfile  = flag.String("memprofile", "", "write an allocation profile at campaign end to this file (empty: off)")
		logPath     = flag.String("log", "", "write the campaign's structured JSONL log to this file and a RUNS.jsonl ledger beside it (empty: off)")
		logLevel    = flag.String("log-level", "info", "minimum log level: "+strings.Join(cliflags.LogLevels, ", "))
		tlPath      = flag.String("timeline", "", "write a windowed metric time-series as JSONL to this file (empty: off)")
		tlWindow    = flag.Int("timeline-window", obs.DefaultTimelineWindow, "completed runs per logical timeline window")
		version     = flag.Bool("version", false, "print build provenance (git SHA, Go version) and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "witag-sim")
		return
	}

	cfg := deployment{
		apStr: *apFlag, tagStr: *tagFlag, wallsStr: *wallsFlag,
		cipherStr: *cipherFlag, faultStr: *faultFlag, trafficStr: *trafficFlag,
		xferStr: *xferFlag, payloadLen: *payloadLen, gain: *gain, tempC: *tempC,
	}
	ocfg := obsConfig{metricsAddr: *metricsAddr, tracePath: *tracePath, traceCap: *traceCap, progress: *progress,
		cpuProfile: *cpuProfile, memProfile: *memProfile, logPath: *logPath, logLevel: *logLevel,
		tlPath: *tlPath, tlWindow: *tlWindow}
	clirun.Main("witag-sim", func(ctx context.Context) error {
		return run(ctx, cfg, ocfg, *rounds, *runs, *parallel, *seed)
	})
}

// obsConfig carries the observability flags.
type obsConfig struct {
	metricsAddr string
	tracePath   string
	traceCap    int
	progress    bool
	cpuProfile  string
	memProfile  string
	logPath     string
	logLevel    string
	tlPath      string
	tlWindow    int
}

// deployment is the flag-specified scenario, buildable once per run.
type deployment struct {
	apStr, tagStr, wallsStr, cipherStr, faultStr string
	trafficStr, xferStr                          string
	payloadLen                                   int
	gain, tempC                                  float64
}

// site is a deployment's parsed geometry: the AP and tag positions and
// each vertical wall's x position and attenuation.
type site struct {
	ap, tag channel.Point
	walls   [][2]float64
}

// parse parses the deployment's positions and walls and checks every
// number the model takes from the flags, naming the flag at fault: a
// non-finite coordinate, wall, loss or temperature, or a non-finite or
// negative gain, would run a whole campaign on a meaningless channel.
func (d deployment) parse() (site, error) {
	var s site
	var err error
	if s.ap, err = parsePoint(d.apStr); err != nil {
		return s, fmt.Errorf("-ap: %w", err)
	}
	if s.tag, err = parsePoint(d.tagStr); err != nil {
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
			s.walls = append(s.walls, xa)
		}
	}
	if math.IsNaN(d.tempC) || math.IsInf(d.tempC, 0) {
		return s, fmt.Errorf("-temp: %v °C is not finite", d.tempC)
	}
	if !(d.gain >= 0) || math.IsInf(d.gain, 0) {
		return s, fmt.Errorf("-gain: %v must be finite and >= 0", d.gain)
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

// build constructs one run's deployment from its labeled seed.
func (d deployment) build(envSeed int64) (*core.System, *channel.Environment, error) {
	s, err := d.parse()
	if err != nil {
		return nil, nil, err
	}
	ap := s.ap

	env := channel.NewEnvironment(envSeed)
	env.AddReflector(channel.Point{X: ap.X / 2, Y: 3.5}, 60)
	env.AddReflector(channel.Point{X: ap.X / 2, Y: -3.5}, 60)
	env.AddScatterers(4, 0, -3, ap.X, 3, 15, 1.0)
	for _, w := range s.walls {
		env.AddWall(channel.Point{X: w[0], Y: -10}, channel.Point{X: w[0], Y: 10}, w[1], "wall")
	}

	sys, err := core.NewSystem(env, channel.Point{}, ap, s.tag, d.gain, envSeed)
	if err != nil {
		return nil, nil, err
	}
	sys.TempC = d.tempC
	switch d.cipherStr {
	case "open":
	case "wep":
		c, err := crypto80211.NewWEP([]byte("witag"), 0)
		if err != nil {
			return nil, nil, err
		}
		sys.Cipher = c
		sys.Scheduler.Cipher = c
	case "ccmp":
		c, err := crypto80211.NewCCMP(make([]byte, 16), [6]byte{2, 0, 0, 0, 0, 0x10}, 0)
		if err != nil {
			return nil, nil, err
		}
		sys.Cipher = c
		sys.Scheduler.Cipher = c
	default:
		return nil, nil, fmt.Errorf("unknown cipher %q (open, wep, ccmp)", d.cipherStr)
	}
	if d.faultStr != "" {
		prof, err := fault.Named(d.faultStr)
		if err != nil {
			return nil, nil, err
		}
		sys.Faults, err = fault.NewInjector(prof, stats.SubSeed(envSeed, "fault"))
		if err != nil {
			return nil, nil, err
		}
	}
	if d.trafficStr != "" {
		prof, err := traffic.Named(d.trafficStr)
		if err != nil {
			return nil, nil, err
		}
		sys.Traffic, err = traffic.NewGenerator(prof, stats.SubSeed(envSeed, "traffic"))
		if err != nil {
			return nil, nil, err
		}
	}
	if err := sys.Reshape(); err != nil {
		return nil, nil, err
	}
	return sys, env, nil
}

func run(ctx context.Context, cfg deployment, ocfg obsConfig, rounds, runs, parallel int, seed int64) (err error) {
	if runs < 1 {
		return fmt.Errorf("need at least 1 run, got %d", runs)
	}
	// Up-front flag validation, shared with the other CLIs via
	// internal/cliflags: reject unknown selectors and unusable paths
	// before any work — a typo must produce a usage error, never a
	// partial campaign.
	if _, verr := cfg.parse(); verr != nil {
		return verr
	}
	if verr := cliflags.FaultProfile("-fault", cfg.faultStr, true); verr != nil {
		return verr
	}
	if verr := cliflags.TrafficProfile("-traffic", cfg.trafficStr, true, false); verr != nil {
		return verr
	}
	if verr := cliflags.Choice("-transfer", cfg.xferStr, experiments.CodingSchemes, true); verr != nil {
		return verr
	}
	if cfg.xferStr != "" && (cfg.payloadLen < 1 || cfg.payloadLen > link.MaxTransfer) {
		return fmt.Errorf("payload %d bytes outside [1,%d]", cfg.payloadLen, link.MaxTransfer)
	}
	logLevel, verr := cliflags.LogLevel("-log-level", ocfg.logLevel)
	if verr != nil {
		return verr
	}
	for _, v := range []error{
		cliflags.OutputFile("-trace", ocfg.tracePath),
		cliflags.OutputFile("-cpuprofile", ocfg.cpuProfile),
		cliflags.OutputFile("-memprofile", ocfg.memProfile),
		cliflags.OutputFile("-log", ocfg.logPath),
		cliflags.OutputFile("-timeline", ocfg.tlPath),
		cliflags.MetricsAddr("-metrics-addr", ocfg.metricsAddr),
	} {
		if v != nil {
			return v
		}
	}
	if ocfg.tlWindow <= 0 {
		return fmt.Errorf("-timeline-window must be >= 1, got %d", ocfg.tlWindow)
	}

	// Same contract for profile paths: an unwritable -cpuprofile or
	// -memprofile must fail now, never after minutes of simulation.
	if ocfg.cpuProfile != "" {
		f, err := os.Create(ocfg.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if ocfg.memProfile != "" {
		f, err := os.Create(ocfg.memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			// Settle the heap first so in-use numbers reflect live data;
			// the allocs profile also carries cumulative allocation sites.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "witag-sim: memprofile:", err)
			}
			f.Close()
		}()
	}

	// Campaign wiring: this invocation is the process's one campaign
	// scope — its own registry, trace ring, progress reporter,
	// structured logger and SSE event broker, attached to every run's
	// system by the runner. Attaching draws no RNG values, so the
	// measurements below are byte-identical with or without it. The run
	// ledger lands beside the -log file (no -log, no ledger).
	opts := clirun.Options{
		Tool: "witag-sim", Campaign: "sim",
		LogPath: ocfg.logPath, LogLevel: logLevel,
		StartAttrs: []any{
			slog.String("ap", cfg.apStr), slog.String("tag", cfg.tagStr),
			slog.String("cipher", cfg.cipherStr), slog.Int64("seed", seed),
			slog.Int("runs", runs), slog.Int("rounds", rounds),
		},
		TracePath: ocfg.tracePath, MetricsAddr: ocfg.metricsAddr,
		Provenance: simProvenance{
			GoVersion: runtime.Version(), AP: cfg.apStr, Tag: cfg.tagStr,
			Cipher: cfg.cipherStr, Fault: cfg.faultStr, Traffic: cfg.trafficStr,
			Transfer: cfg.xferStr, Rounds: rounds, Runs: runs, Seed: seed,
		},
	}
	if ocfg.progress {
		opts.ProgressNoun = "runs"
	}
	if ocfg.tracePath != "" {
		opts.TraceCap = ocfg.traceCap
		if opts.TraceCap <= 0 {
			opts.TraceCap = obs.DefaultTraceCap
		}
	}
	if ocfg.logPath != "" {
		opts.LedgerDir = filepath.Dir(ocfg.logPath)
	}
	cr, err := clirun.Start(ctx, opts)
	if err != nil {
		return err
	}
	defer func() { cr.Finish(err) }()
	for _, a := range []string{ocfg.tracePath, ocfg.tlPath, ocfg.cpuProfile, ocfg.memProfile, ocfg.logPath} {
		if a != "" {
			cr.AddArtifact(a)
		}
	}
	camp := cr.Campaign
	if ocfg.tlPath != "" {
		tl := obs.NewTimeline(camp.Registry, obs.TimelineConfig{WindowTrials: ocfg.tlWindow})
		camp.SetTimeline(tl)
		defer func() {
			tl.Flush()
			if terr := clirun.WriteJSONL(ocfg.tlPath, tl, clirun.ErrorText(err)); terr != nil {
				fmt.Fprintln(cr.Stderr, "witag-sim: timeline:", terr)
			}
		}()
	}

	if cfg.xferStr != "" {
		return runTransfers(ctx, cfg, camp, runs, parallel, seed)
	}

	trials := make([]sim.Trial, runs)
	for i := range trials {
		runLabel := fmt.Sprintf("run=%d", i)
		trials[i] = sim.Trial{
			Build: func() (*core.System, *channel.Environment, error) {
				return cfg.build(stats.SubSeed(seed, "sim", runLabel))
			},
			Rounds:   rounds,
			DataSeed: stats.SubSeed(seed, "sim", runLabel, "data"),
			// Trial.Run instruments the system (and its fault injector
			// and traffic generator) with the runner's campaign after
			// Build.
			ID:     i,
			Labels: "sim/" + runLabel,
		}
	}
	runStats, err := sim.Runner{Workers: parallel, Campaign: camp}.RunTrials(ctx, trials)
	if err != nil {
		return err
	}

	// Rebuild run 0's deployment once more for the static link report
	// (rate, SNR, query shape) — it is identical across runs.
	sys, env, err := cfg.build(stats.SubSeed(seed, "sim", "run=0"))
	if err != nil {
		return err
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return err
	}
	snr, err := env.SNR(sys.ClientPos, sys.APPos)
	if err != nil {
		return err
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

	fmt.Printf("deployment: client (0,0), AP %v, tag %v, cipher %s\n", sys.APPos, sys.TagPos, cfg.cipherStr)
	if cfg.faultStr != "" {
		prof, err := fault.Named(cfg.faultStr)
		if err != nil {
			return err
		}
		fmt.Printf("fault profile     : %s (mean subframe loss %.3f, %.1f%% of time in burst)\n",
			cfg.faultStr, prof.AvgLoss(), 100*prof.BadFraction())
	}
	fmt.Printf("link SNR          : %.1f dB\n", 10*log10(snr))
	fmt.Printf("query shape       : %d triggers + %d data subframes, %d tick(s)/subframe\n",
		sys.Spec.TriggerLen, sys.Spec.DataLen, sys.Spec.TicksPerSubframe)
	fmt.Printf("offered tag rate  : %.1f Kbps\n", rate/1e3)
	if runs == 1 {
		fmt.Printf("rounds            : %d (%.1f s of airtime)\n", rounds, airtime)
		fmt.Printf("detection rate    : %.3f\n", meanDet)
		fmt.Printf("tag BER           : %.5f (%d/%d bits)\n", meanBER, errBits, bits)
	} else {
		fmt.Printf("runs              : %d × %d rounds (%.1f s of airtime)\n", runs, rounds, airtime)
		fmt.Printf("detection rate    : %.3f (mean of %d runs)\n", meanDet, runs)
		fmt.Printf("tag BER           : %.5f ± %.5f across runs (%d/%d bits)\n",
			meanBER, stats.StdDev(bers), errBits, bits)
	}
	fmt.Printf("delivered goodput : %.1f Kbps\n", rate/1e3*(1-meanBER))
	return nil
}

// runTransfers is the -transfer mode: each run moves one payload over the
// deployment with the selected scheme (the same transferers the adaptive-
// coding sweep compares) and the summary reports delivery, rounds and
// goodput instead of raw BER.
func runTransfers(ctx context.Context, cfg deployment, camp *obs.Campaign, runs, parallel int, seed int64) error {
	outs, err := sim.Map(ctx, sim.Runner{Workers: parallel, Campaign: camp}, runs,
		func(ctx context.Context, i int) (experiments.TransferOutcome, error) {
			runLabel := fmt.Sprintf("run=%d", i)
			sys, env, err := cfg.build(stats.SubSeed(seed, "sim", runLabel))
			if err != nil {
				return experiments.TransferOutcome{}, err
			}
			sys.Instrument(camp.Observer, i, "sim/"+runLabel+"/scheme="+cfg.xferStr)
			payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(seed, "sim", runLabel, "payload")), cfg.payloadLen)
			return experiments.RunTransfer(ctx, cfg.xferStr, sys, env, payload, stats.SubSeed(seed, "sim", runLabel, "xfer"))
		})
	if err != nil {
		return err
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
	fmt.Printf("transfer scheme   : %s (%d-byte payloads)\n", cfg.xferStr, cfg.payloadLen)
	if cfg.faultStr != "" {
		fmt.Printf("fault profile     : %s\n", cfg.faultStr)
	}
	if cfg.trafficStr != "" {
		fmt.Printf("traffic profile   : %s\n", cfg.trafficStr)
	}
	fmt.Printf("transfers         : %d (%.1f s of airtime)\n", runs, airtime)
	fmt.Printf("delivery rate     : %.3f (%d/%d)\n", float64(delivered)/float64(runs), delivered, runs)
	fmt.Printf("mean rounds       : %.1f (%.1f frames)\n", rounds/float64(runs), frames/float64(runs))
	if delivered > 0 {
		fmt.Printf("delivered goodput : %.1f Kbps\n", goodput/float64(delivered)/1e3)
	}
	return nil
}

// simProvenance is the ledger stamp for a witag-sim run: the deployment
// and campaign shape, enough to re-run the exact invocation.
type simProvenance struct {
	GoVersion string `json:"go_version"`
	AP        string `json:"ap"`
	Tag       string `json:"tag"`
	Cipher    string `json:"cipher"`
	Fault     string `json:"fault,omitempty"`
	Traffic   string `json:"traffic,omitempty"`
	Transfer  string `json:"transfer,omitempty"`
	Rounds    int    `json:"rounds"`
	Runs      int    `json:"runs"`
	Seed      int64  `json:"seed"`
}

func log10(x float64) float64 {
	if x <= 0 {
		return -300
	}
	return math.Log10(x)
}
