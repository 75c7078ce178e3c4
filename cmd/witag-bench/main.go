// Command witag-bench regenerates every figure and analytical table of the
// WiTAG paper from the simulation, printing the same rows/series the paper
// reports plus this reproduction's measurements.
//
// Usage:
//
//	witag-bench [-experiment all|fig3|fig5|fig6|s41|compare|power|ablations|robustness|coding]
//	            [-seed N] [-runs N] [-rounds N] [-parallel N] [-json DIR]
//	            [-fault PROFILE] [-transfers N]
//	            [-transfer all|arq|fountain|rs] [-traffic all|PROFILE]
//	            [-profile DIR] [-metrics-addr HOST:PORT] [-trace FILE]
//	            [-trace-out DIR] [-trace-cap N] [-progress]
//	            [-timeline] [-timeline-window N] [-timeline-wall DUR]
//	            [-log FILE] [-log-level debug|info|warn|error] [-version]
//
// Scale note: "-rounds" stands in for the paper's one-minute measurement
// windows; the defaults keep the full suite under a minute of wall time.
// Raise them to tighten the statistics.
//
// Monte-Carlo trials fan across -parallel workers (default: all CPUs) via
// internal/sim; results are byte-identical for every worker count, so
// -parallel only changes the wall clock. Ctrl-C cancels cleanly.
//
// With -json DIR, each experiment additionally writes its series as
// machine-readable BENCH_<name>.json under DIR, so successive runs (and
// future PRs) can diff trajectories instead of parsing tables — plus a
// BENCH_<name>.metrics.json holding the experiment's metrics-registry
// delta (rounds, subframe verdicts, faults injected, ARQ activity) and a
// PROF_<name>.json phase-attribution profile (per-phase span quantiles,
// wall-time shares, allocations per trial) the gate budgets against.
//
// With -profile DIR, every experiment is additionally wrapped in pprof
// capture: cpu_<name>.pprof across the run, then heap_<name>.pprof and
// allocs_<name>.pprof after a forced GC — ready for `go tool pprof` —
// and the phase-attribution table is printed to stderr.
//
// Observability (all opt-in, none changes any result byte):
//
//	-metrics-addr :9090   serve the campaign hub for the lifetime of the
//	                      run: Prometheus text at /metrics, campaign list
//	                      and status at /campaigns, a live SSE event
//	                      stream at /campaigns/bench/events, plus
//	                      /debug/vars and /debug/pprof/ (":0" picks a
//	                      port, printed on stderr)
//	-trace trace.jsonl    record structured per-round/per-transfer events
//	                      into a bounded ring (-trace-cap events) and write
//	                      them as JSONL on exit
//	-trace-out DIR        like -trace, but one fresh ring per experiment,
//	                      written as TRACE_<name>.jsonl under DIR — the
//	                      files witag-trace analyze/flag/replay consume
//	-progress             live trials/sec and ETA on stderr
//	-timeline             capture a windowed metric time-series per
//	                      experiment (one logical window every
//	                      -timeline-window completed trials) and write it
//	                      as TL_<name>.jsonl beside the BENCH artifacts;
//	                      requires -json DIR. Logical windows are
//	                      deterministic: the TL bytes are identical at
//	                      any -parallel. -timeline-wall DUR additionally
//	                      samples volatile wall-clock windows every DUR
//	                      (these are excluded from determinism, like any
//	                      Volatile instrument). Live view: witag-top, or
//	                      /campaigns/bench/timeseries with -metrics-addr
//	-log run.jsonl        write the campaign's structured JSONL log there;
//	                      with -json DIR, a RUNS.jsonl run-ledger line is
//	                      also appended under DIR
//	                      (-log-level picks the floor: debug…error)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"witag/internal/buildinfo"
	"witag/internal/cliflags"
	"witag/internal/clirun"
	"witag/internal/experiments"
	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/perf"
	"witag/internal/regress"
	"witag/internal/sim"
	"witag/internal/traffic"
)

// experimentNames lists every -experiment value, in run order.
var experimentNames = []string{"all", "fig3", "fig5", "fig6", "s41", "compare", "power", "ablations", "robustness", "coding"}

type benchConfig struct {
	experiment string
	seed       int64
	runs       int
	rounds     int
	parallel   int
	jsonDir    string
	faultProf  string
	transfers  int
	transfer   string
	trafficSel string
	profileDir string

	metricsAddr string
	tracePath   string
	traceOut    string
	traceCap    int
	progress    bool
	logPath     string
	logLevel    string

	timeline     bool
	timelineWin  int
	timelineWall time.Duration
}

func main() {
	var cfg benchConfig
	flag.StringVar(&cfg.experiment, "experiment", "all", "which experiment to run: "+strings.Join(experimentNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 42, "root random seed")
	flag.IntVar(&cfg.runs, "runs", 4, "measurement repetitions (figure 5; figure 6 uses 60)")
	flag.IntVar(&cfg.rounds, "rounds", 700, "query rounds per measurement run")
	flag.IntVar(&cfg.parallel, "parallel", 0, "concurrent trial workers; <= 0 means all CPUs")
	flag.StringVar(&cfg.jsonDir, "json", "", "directory to write BENCH_<name>.json series into (empty: off)")
	flag.StringVar(&cfg.faultProf, "fault", "bursty", "fault profile for the robustness sweep: "+strings.Join(fault.Names(), ", "))
	flag.IntVar(&cfg.transfers, "transfers", 100, "transfers per sweep point per mode (robustness)")
	flag.StringVar(&cfg.transfer, "transfer", "all", "transfer scheme for the coding sweep: all, "+strings.Join(experiments.CodingSchemes, ", "))
	flag.StringVar(&cfg.trafficSel, "traffic", "all", "ambient-traffic profile for the coding sweep: all (the full profile grid), "+strings.Join(traffic.Names(), ", "))
	flag.StringVar(&cfg.profileDir, "profile", "", "write cpu/heap/allocs pprof profiles per experiment under this directory (empty: off)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address during the run (empty: off)")
	flag.StringVar(&cfg.tracePath, "trace", "", "write per-round/per-transfer trace events as JSONL to this file (empty: off)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write one TRACE_<name>.jsonl per experiment under this directory (empty: off)")
	flag.IntVar(&cfg.traceCap, "trace-cap", obs.DefaultTraceCap, "trace ring capacity in events; oldest events are dropped beyond it")
	flag.BoolVar(&cfg.progress, "progress", false, "live trial progress (rate, ETA) on stderr")
	flag.StringVar(&cfg.logPath, "log", "", "write the campaign's structured JSONL log to this file (empty: off)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: "+strings.Join(cliflags.LogLevels, ", "))
	flag.BoolVar(&cfg.timeline, "timeline", false, "write a TL_<name>.jsonl windowed time-series per experiment under -json DIR")
	flag.IntVar(&cfg.timelineWin, "timeline-window", obs.DefaultTimelineWindow, "completed trials per logical timeline window")
	flag.DurationVar(&cfg.timelineWall, "timeline-wall", 0, "also sample volatile wall-clock timeline windows at this interval (0: off)")
	version := flag.Bool("version", false, "print build provenance (git SHA, Go version) and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "witag-bench")
		return
	}

	clirun.Main("witag-bench", func(ctx context.Context) error { return run(ctx, cfg) })
}

// writeMemProfiles snapshots heap_<name>.pprof and allocs_<name>.pprof
// under dir after a forced GC, so the heap numbers reflect live data, not
// whatever the collector hadn't reached yet.
func writeMemProfiles(dir, name string) error {
	runtime.GC()
	for _, kind := range []string{"heap", "allocs"} {
		p := pprof.Lookup(kind)
		if p == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, kind+"_"+name+".pprof"))
		if err != nil {
			return err
		}
		if err := p.WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// provenance builds the stamp shared by every artifact of this run. The
// timestamp is taken here, once, in the CLI — nothing on the
// deterministic experiment path reads the clock.
func provenance(cfg benchConfig) regress.Provenance {
	workers := cfg.parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return regress.Provenance{
		GitSHA:         buildinfo.GitSHA(),
		GoVersion:      runtime.Version(),
		TimestampUTC:   time.Now().UTC().Format(time.RFC3339),
		Seed:           cfg.seed,
		Runs:           cfg.runs,
		Rounds:         cfg.rounds,
		Transfers:      cfg.transfers,
		Workers:        workers,
		FaultProfile:   cfg.faultProf,
		TransferScheme: cfg.transfer,
		TrafficProfile: cfg.trafficSel,
	}
}

func run(ctx context.Context, cfg benchConfig) (err error) {
	// Up-front flag validation, shared with the other CLIs via
	// internal/cliflags: reject unknown selectors and unusable paths
	// before any work, naming the flag and the valid choices — a typo
	// must not silently run nothing.
	if verr := cliflags.Choice("-experiment", cfg.experiment, experimentNames, false); verr != nil {
		return verr
	}
	if verr := cliflags.FaultProfile("-fault", cfg.faultProf, false); verr != nil {
		return verr
	}
	if verr := cliflags.Choice("-transfer", cfg.transfer, append([]string{"all"}, experiments.CodingSchemes...), false); verr != nil {
		return verr
	}
	if verr := cliflags.TrafficProfile("-traffic", cfg.trafficSel, false, true); verr != nil {
		return verr
	}
	if cfg.tracePath != "" && cfg.traceOut != "" {
		return fmt.Errorf("-trace and -trace-out are exclusive: one ring for the whole run, or one per experiment")
	}
	if cfg.timeline && cfg.jsonDir == "" {
		return fmt.Errorf("-timeline writes TL_<name>.jsonl beside the BENCH artifacts and needs -json DIR")
	}
	if cfg.timelineWin <= 0 {
		return fmt.Errorf("-timeline-window must be >= 1, got %d", cfg.timelineWin)
	}
	logLevel, verr := cliflags.LogLevel("-log-level", cfg.logLevel)
	if verr != nil {
		return verr
	}
	for _, v := range []error{
		cliflags.OutputDir("-profile", cfg.profileDir),
		cliflags.OutputDir("-json", cfg.jsonDir),
		cliflags.OutputDir("-trace-out", cfg.traceOut),
		cliflags.OutputFile("-trace", cfg.tracePath),
		cliflags.OutputFile("-log", cfg.logPath),
		cliflags.MetricsAddr("-metrics-addr", cfg.metricsAddr),
	} {
		if v != nil {
			return v
		}
	}

	// Campaign wiring: this invocation is one campaign scope under a
	// process hub — its own registry, trace ring, progress reporter,
	// structured logger and SSE event broker — passed explicitly to every
	// harness, which instruments the systems, injectors, transferers and
	// runners it builds through it. The run ledger lands beside the BENCH
	// artifacts (no -json directory, no ledger).
	traceCap := 0
	if cfg.tracePath != "" || cfg.traceOut != "" {
		traceCap = cfg.traceCap
		if traceCap <= 0 {
			traceCap = obs.DefaultTraceCap
		}
	}
	opts := clirun.Options{
		Tool: "witag-bench", Campaign: "bench",
		LogPath: cfg.logPath, LogLevel: logLevel,
		StartAttrs: []any{
			slog.String("experiment", cfg.experiment), slog.Int64("seed", cfg.seed),
			slog.Int("runs", cfg.runs), slog.Int("rounds", cfg.rounds),
		},
		TraceCap: traceCap, TracePath: cfg.tracePath,
		MetricsAddr: cfg.metricsAddr,
		LedgerDir:   cfg.jsonDir, Provenance: provenance(cfg),
	}
	if cfg.progress {
		opts.ProgressNoun = "trials"
	}
	cr, err := clirun.Start(ctx, opts)
	if err != nil {
		return err
	}
	defer func() { cr.Finish(err) }()
	camp := cr.Campaign
	reg := camp.Registry

	// emit writes an experiment's series plus the metrics-registry delta
	// accumulated since the previous experiment finished, both wrapped in
	// a provenance envelope naming what produced them, plus the delta's
	// phase-attribution profile as PROF_<name>.json. The trial count is
	// the runner's own tally for this experiment, read from the delta.
	lastSnap := reg.Snapshot()
	runProv := provenance(cfg)
	emit := func(name string, v any) error {
		now := reg.Snapshot()
		delta := now.Delta(lastSnap)
		lastSnap = now
		rep := perf.FromSnapshot(delta)
		if cfg.profileDir != "" && rep.Trials > 0 {
			fmt.Fprintf(os.Stderr, "perf %s:\n%s", name, rep.Render())
		}
		// Low coverage on a span-bearing experiment means untimed work
		// crept into the trials. Analytic experiments (fig3, s41, compare)
		// record no spans at all and stay quiet — losing instrumentation
		// entirely is the gate's structural check, not this warning.
		spansFired := false
		for _, ps := range rep.Phases {
			if ps.Count > 0 {
				spansFired = true
				break
			}
		}
		if spansFired && rep.Trials > 0 && rep.Coverage < 0.9 {
			fmt.Fprintf(os.Stderr, "perf: %s: spans attribute only %.1f%% of trial wall time\n", name, 100*rep.Coverage)
		}
		// Live phase-attribution snapshot for /campaigns/bench/events
		// watchers, mirroring the PROF artifact written below.
		rep.Publish(camp, name)
		camp.Logger.Info("experiment finished", slog.String("experiment", name),
			slog.Int64("trials", delta.Counters["runner.trials_started"]),
			slog.Int64("rounds", delta.Counters["core.rounds"]))
		if cfg.jsonDir == "" {
			return nil
		}
		prov := runProv
		prov.Experiment = name
		prov.Trials = delta.Counters["runner.trials_started"]
		if err := regress.WriteSeries(cfg.jsonDir, name, prov, v); err != nil {
			return err
		}
		if err := regress.WriteMetrics(cfg.jsonDir, name, prov, delta); err != nil {
			return err
		}
		if err := regress.WriteProf(cfg.jsonDir, name, prov, rep); err != nil {
			return err
		}
		cr.AddArtifact("BENCH_" + name + ".json")
		cr.AddArtifact("BENCH_" + name + ".metrics.json")
		cr.AddArtifact("PROF_" + name + ".json")
		return nil
	}

	all := cfg.experiment == "all"
	seed, runs, rounds, parallel := cfg.seed, cfg.runs, cfg.rounds, cfg.parallel

	// runExperiment runs one experiment on a runner scoped to the
	// campaign. With -trace-out, the campaign's ring is written as
	// TRACE_<name>.jsonl under the directory when the experiment finishes
	// and then reset — one self-contained file per experiment for
	// witag-trace to analyze. With -timeline, the experiment gets its own
	// fresh timeline attached to the campaign (every runner under it then
	// samples windowed deltas), written as TL_<name>.jsonl beside the
	// BENCH artifacts.
	runExperiment := func(name string, fn func(runner sim.Runner) error) error {
		if !all && cfg.experiment != name {
			return nil
		}
		camp.Logger.Info("experiment started", slog.String("experiment", name))
		var tl *obs.Timeline
		stopWall := func() {}
		if cfg.timeline {
			tl = obs.NewTimeline(reg, obs.TimelineConfig{WindowTrials: cfg.timelineWin})
			camp.SetTimeline(tl)
			if cfg.timelineWall > 0 {
				stopWall = tl.StartWallSampler(cfg.timelineWall)
			}
			defer func() {
				stopWall() // idempotent
				camp.SetTimeline(nil)
			}()
		}
		var cpuFile *os.File
		if cfg.profileDir != "" {
			var perr error
			cpuFile, perr = os.Create(filepath.Join(cfg.profileDir, "cpu_"+name+".pprof"))
			if perr != nil {
				return perr
			}
			if perr := pprof.StartCPUProfile(cpuFile); perr != nil {
				cpuFile.Close()
				return perr
			}
		}
		err := fn(sim.Runner{Workers: parallel, Campaign: camp})
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if cerr := cpuFile.Close(); err == nil && cerr != nil {
				err = cerr
			}
			if perr := writeMemProfiles(cfg.profileDir, name); err == nil && perr != nil {
				err = perr
			}
		}
		if err != nil {
			return err
		}
		if tl != nil {
			stopWall()
			tl.Flush()
			path := filepath.Join(cfg.jsonDir, "TL_"+name+".jsonl")
			if err := clirun.WriteJSONL(path, tl); err != nil {
				return err
			}
			cr.AddArtifact("TL_" + name + ".jsonl")
			if d := tl.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "timeline: wrote %d windows to %s (%d older windows dropped)\n", tl.Total()-d, path, d)
			}
		}
		if cfg.traceOut == "" {
			return nil
		}
		if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.traceOut, "TRACE_"+name+".jsonl")
		cr.AddArtifact(path)
		return cr.ExportTrace(path)
	}

	if err := runExperiment("fig3", func(runner sim.Runner) error {
		res, err := experiments.Figure3Ctx(ctx, runner, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := res.ShapeChecks(); err != nil {
			return err
		}
		return emit("fig3", res)
	}); err != nil {
		return err
	}
	if err := runExperiment("fig5", func(runner sim.Runner) error {
		res, err := experiments.Figure5Ctx(ctx, experiments.Figure5Config{Seed: seed, Runs: runs, Round: rounds, Workers: parallel, Campaign: camp})
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := res.ShapeChecks(); err != nil {
			return err
		}
		return emit("fig5", res)
	}); err != nil {
		return err
	}
	if err := runExperiment("fig6", func(sim.Runner) error {
		fcfg := experiments.DefaultFigure6Config()
		fcfg.Seed = seed
		fcfg.Workers = parallel
		fcfg.Campaign = camp
		fcfg.Round = rounds / 2
		if fcfg.Round < 10 {
			fcfg.Round = 10
		}
		a, err := experiments.Figure6Ctx(ctx, experiments.LocationA, fcfg)
		if err != nil {
			return err
		}
		fcfg.Seed = seed + 1
		b, err := experiments.Figure6Ctx(ctx, experiments.LocationB, fcfg)
		if err != nil {
			return err
		}
		fmt.Println(a.Render())
		fmt.Println(b.Render())
		if err := experiments.CheckFigure6Shape(a, b); err != nil {
			return err
		}
		return emit("fig6", map[string]experiments.Figure6Series{"A": a.Series(), "B": b.Series()})
	}); err != nil {
		return err
	}
	if err := runExperiment("s41", func(runner sim.Runner) error {
		res, err := experiments.Section41SweepCtx(ctx, runner)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := res.ShapeChecks(); err != nil {
			return err
		}
		return emit("s41", res)
	}); err != nil {
		return err
	}
	if err := runExperiment("compare", func(sim.Runner) error {
		res, err := experiments.PriorSystemComparison(seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := res.ShapeChecks(); err != nil {
			return err
		}
		return emit("compare", res)
	}); err != nil {
		return err
	}
	if err := runExperiment("power", func(runner sim.Runner) error {
		res, err := experiments.Section7PowerCtx(ctx, runner, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := res.ShapeChecks(); err != nil {
			return err
		}
		return emit("power", res)
	}); err != nil {
		return err
	}
	if err := runExperiment("ablations", func(runner sim.Runner) error {
		// Tables finished before a failure still print, ahead of the error.
		results, err := experiments.RunAblations(ctx, runner, seed, rounds)
		series := map[string]*experiments.AblationResult{}
		for _, res := range results {
			fmt.Println(res.Render())
			series[res.Label] = res
		}
		if err != nil {
			return err
		}
		return emit("ablations", series)
	}); err != nil {
		return err
	}
	if err := runExperiment("robustness", func(sim.Runner) error {
		rcfg := experiments.DefaultRobustnessConfig()
		rcfg.Seed = seed
		rcfg.Workers = parallel
		rcfg.Campaign = camp
		rcfg.BaseProfile = cfg.faultProf
		rcfg.Transfers = cfg.transfers
		res, err := experiments.RobustnessCtx(ctx, rcfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := res.ShapeChecks(); err != nil {
			return err
		}
		return emit("robustness", res)
	}); err != nil {
		return err
	}
	if err := runExperiment("coding", func(sim.Runner) error {
		ccfg := experiments.DefaultAdaptiveCodingConfig()
		ccfg.Seed = seed
		ccfg.Workers = parallel
		ccfg.Campaign = camp
		full := cfg.transfer == "all" && cfg.trafficSel == "all"
		if cfg.transfer != "all" {
			ccfg.Schemes = []string{cfg.transfer}
		}
		if cfg.trafficSel != "all" {
			// Narrow the grid to the profiles composed with the selected
			// ambient-traffic preset.
			var kept []experiments.CodingProfile
			for _, p := range ccfg.Profiles {
				if p.Traffic == cfg.trafficSel {
					kept = append(kept, p)
				}
			}
			if len(kept) == 0 {
				return fmt.Errorf("no coding profile uses traffic %q", cfg.trafficSel)
			}
			ccfg.Profiles = kept
		}
		res, err := experiments.AdaptiveCodingCtx(ctx, ccfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		// The shape claims compare all three schemes across the full grid;
		// a -transfer/-traffic narrowed run is exploration, not a gate.
		if full {
			if err := res.ShapeChecks(); err != nil {
				return err
			}
		}
		return emit("coding", res)
	}); err != nil {
		return err
	}
	return nil
}
