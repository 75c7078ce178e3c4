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
// The experiments come from one table, experiments.Suite. Every selected
// experiment runs even after another fails its run or its shape checks:
// each failure is printed on stderr as it happens and stamped as "error"
// on that experiment's artifacts, and the command exits 1 at the end with
// a last line naming the failed experiments.
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
//	-metrics-addr :9090   serve the run's campaign for the lifetime of the
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
	"errors"
	"flag"
	"fmt"
	"io"
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

// experimentChoices lists every -experiment value for suite: "all", then
// each experiment in run order.
func experimentChoices(suite []experiments.Experiment) []string {
	names := []string{"all"}
	for _, e := range suite {
		names = append(names, e.Name)
	}
	return names
}

// benchConfig is the parsed flags: the suite's settings, then the
// CLI's own.
type benchConfig struct {
	experiments.SuiteConfig

	experiment string
	parallel   int
	jsonDir    string
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
	flag.StringVar(&cfg.experiment, "experiment", "all", "which experiment to run: "+strings.Join(experimentChoices(experiments.Suite), ", "))
	flag.Int64Var(&cfg.Seed, "seed", 42, "root random seed")
	flag.IntVar(&cfg.Runs, "runs", 4, "measurement repetitions (figure 5; figure 6 uses 60)")
	flag.IntVar(&cfg.Rounds, "rounds", 700, "query rounds per measurement run")
	flag.IntVar(&cfg.parallel, "parallel", 0, "concurrent trial workers; <= 0 means all CPUs")
	flag.StringVar(&cfg.jsonDir, "json", "", "directory to write BENCH_<name>.json series into (empty: off)")
	flag.StringVar(&cfg.FaultProfile, "fault", "bursty", "fault profile for the robustness sweep: "+strings.Join(fault.Names(), ", "))
	flag.IntVar(&cfg.Transfers, "transfers", 100, "transfers per sweep point per mode (robustness)")
	flag.StringVar(&cfg.Scheme, "transfer", "all", "transfer scheme for the coding sweep: all, "+strings.Join(experiments.CodingSchemes, ", "))
	flag.StringVar(&cfg.Traffic, "traffic", "all", "ambient-traffic profile for the coding sweep: all (the full profile grid), "+strings.Join(traffic.Names(), ", "))
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

	clirun.Main("witag-bench", func(ctx context.Context) error {
		return run(ctx, cfg, experiments.Suite, os.Stdout, os.Stderr)
	})
}

// writeMemProfiles snapshots heap_<name>.pprof and allocs_<name>.pprof
// under dir after a forced GC, so the heap numbers reflect live data, not
// whatever the collector hadn't reached yet.
func writeMemProfiles(dir, name string) error {
	runtime.GC()
	for _, kind := range []string{"heap", "allocs"} {
		f, err := os.Create(filepath.Join(dir, kind+"_"+name+".pprof"))
		if err != nil {
			return err
		}
		err = pprof.Lookup(kind).WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
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
		Seed:           cfg.Seed,
		Runs:           cfg.Runs,
		Rounds:         cfg.Rounds,
		Transfers:      cfg.Transfers,
		Workers:        workers,
		FaultProfile:   cfg.FaultProfile,
		TransferScheme: cfg.Scheme,
		TrafficProfile: cfg.Traffic,
	}
}

// run runs every experiment of suite that cfg selects, in table order,
// printing each table to stdout. An experiment that fails (a run error or
// a failed shape check) is reported on stderr as it happens, its
// artifacts are stamped with the failure, and the walk goes on: only a
// cancelled ctx stops it early. The returned error only names the failed
// experiments, since each failure was printed in full already; the run's
// ledger line and -trace stamp carry them in full.
func run(ctx context.Context, cfg benchConfig, suite []experiments.Experiment, stdout, stderr io.Writer) error {
	// Up-front flag validation, shared with the other CLIs via
	// internal/cliflags: reject unknown selectors and unusable paths
	// before any work, naming the flag and the valid choices — a typo
	// must not silently run nothing.
	for _, v := range []error{
		cliflags.Choice("-experiment", cfg.experiment, experimentChoices(suite), false),
		cliflags.FaultProfile("-fault", cfg.FaultProfile, false),
		cliflags.Choice("-transfer", cfg.Scheme, append([]string{"all"}, experiments.CodingSchemes...), false),
		cliflags.TrafficProfile("-traffic", cfg.Traffic, false, true),
	} {
		if v != nil {
			return v
		}
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

	// Campaign wiring: this invocation is the process's one campaign
	// scope — its own registry, trace ring, progress reporter,
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
	runProv := provenance(cfg)
	opts := clirun.Options{
		Tool: "witag-bench", Campaign: "bench",
		LogPath: cfg.logPath, LogLevel: logLevel,
		StartAttrs: []any{
			slog.String("experiment", cfg.experiment), slog.Int64("seed", cfg.Seed),
			slog.Int("runs", cfg.Runs), slog.Int("rounds", cfg.Rounds),
		},
		TraceCap: traceCap, TracePath: cfg.tracePath,
		MetricsAddr: cfg.metricsAddr,
		LedgerDir:   cfg.jsonDir, Provenance: runProv,
	}
	if cfg.progress {
		opts.ProgressNoun = "trials"
	}
	cr, err := clirun.Start(ctx, opts)
	if err != nil {
		return err
	}
	var full error // every failure, and a cancellation, in full
	defer func() { cr.Finish(full) }()
	camp := cr.Campaign
	reg := camp.Registry

	// runExperiment runs e on a runner scoped to the campaign, prints its
	// table and checks its shape, then writes its artifacts, each stamped
	// with the failure if it failed. They are its series as
	// BENCH_<name>.json (when it returned a result); the metrics-registry
	// delta since the previous experiment finished, passed or failed, as
	// BENCH_<name>.metrics.json; the delta's phase-attribution profile as
	// PROF_<name>.json; with -timeline, the experiment's own timeline as
	// TL_<name>.jsonl; and with -trace-out, the campaign's ring as
	// TRACE_<name>.jsonl, reset after for the next experiment. It returns
	// the failure joined with any error writing them.
	lastSnap := reg.Snapshot()
	runExperiment := func(e experiments.Experiment) error {
		name := e.Name
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
		res, failure := e.Run(ctx, sim.Runner{Workers: cfg.parallel, Campaign: camp}, cfg.SuiteConfig)
		if res != nil {
			fmt.Fprintln(stdout, res.Render())
			if failure == nil && res.ShapeChecks != nil {
				failure = res.ShapeChecks()
			}
		}
		errs := []error{failure}
		stamp := clirun.ErrorText(failure)

		now := reg.Snapshot()
		delta := now.Delta(lastSnap)
		lastSnap = now
		rep := perf.FromSnapshot(delta)
		if cfg.profileDir != "" && rep.Trials > 0 {
			fmt.Fprintf(os.Stderr, "perf %s:\n%s", name, rep.Render())
		}
		// Low coverage on a span-bearing experiment means untimed work
		// crept into the trials. Analytic experiments (fig3, s41, compare)
		// record no spans at all (zero coverage) and stay quiet — losing
		// instrumentation entirely is the gate's structural check, not
		// this warning.
		if rep.Trials > 0 && rep.Coverage > 0 && rep.Coverage < 0.9 {
			fmt.Fprintf(os.Stderr, "perf: %s: spans attribute only %.1f%% of trial wall time\n", name, 100*rep.Coverage)
		}
		// Live phase-attribution snapshot for /campaigns/bench/events
		// watchers, mirroring the PROF artifact written below.
		rep.Publish(camp, name)
		camp.Logger.Info("experiment finished", slog.String("experiment", name),
			slog.Int64("trials", delta.Counters["runner.trials_started"]),
			slog.Int64("rounds", delta.Counters["core.rounds"]))
		if cfg.jsonDir != "" {
			prov := runProv
			prov.Experiment, prov.Trials, prov.Error = name, delta.Counters["runner.trials_started"], stamp
			if res != nil {
				errs = append(errs, regress.WriteSeries(cfg.jsonDir, name, prov, res.Series))
				cr.AddArtifact("BENCH_" + name + ".json")
			}
			errs = append(errs, regress.WriteMetrics(cfg.jsonDir, name, prov, delta), regress.WriteProf(cfg.jsonDir, name, prov, rep))
			cr.AddArtifact("BENCH_"+name+".metrics.json", "PROF_"+name+".json")
		}

		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close(), writeMemProfiles(cfg.profileDir, name))
		}
		if tl != nil {
			stopWall()
			tl.Flush()
			path := filepath.Join(cfg.jsonDir, "TL_"+name+".jsonl")
			errs = append(errs, clirun.WriteJSONL(path, tl, stamp))
			cr.AddArtifact("TL_" + name + ".jsonl")
			if d := tl.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "timeline: wrote %d windows to %s (%d older windows dropped)\n", tl.Total()-d, path, d)
			}
		}
		if cfg.traceOut != "" {
			path := filepath.Join(cfg.traceOut, "TRACE_"+name+".jsonl")
			cr.AddArtifact(path)
			errs = append(errs, cr.ExportTrace(path, stamp))
		}
		return errors.Join(errs...)
	}

	var failures []error
	var failed []string
	for _, e := range suite {
		if cfg.experiment != "all" && cfg.experiment != e.Name {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		if ferr := runExperiment(e); ferr != nil {
			ferr = fmt.Errorf("%s: %w", e.Name, ferr)
			fmt.Fprintln(stderr, "witag-bench:", ferr)
			failures = append(failures, ferr)
			failed = append(failed, e.Name)
		}
	}
	full = errors.Join(failures...)
	if cerr := ctx.Err(); cerr != nil && !errors.Is(full, cerr) {
		full = errors.Join(full, cerr)
	}
	if len(failed) == 0 {
		return full
	}
	names := strings.Join(failed, ", ")
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("failed experiments: %s (%w)", names, cerr)
	}
	return fmt.Errorf("failed experiments: %s", names)
}
