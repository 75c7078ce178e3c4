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
//	            [-profile DIR] [-metrics-addr HOST:PORT]
//	            [-trace-out DIR] [-trace-cap N] [-progress]
//	            [-timeline] [-timeline-window N]
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
// wall-time shares, allocations per trial) whose phase schema the gate
// checks.
//
// With -profile DIR, every experiment is additionally wrapped in pprof
// capture: cpu_<name>.pprof across the run, then heap_<name>.pprof and
// allocs_<name>.pprof after a forced GC — ready for `go tool pprof` —
// and the phase-attribution table is printed to stderr, followed by a
// warning when the spans attribute under 90% of the trial wall time.
// Without -profile stderr holds no wall-clock figure; the coverage figure
// is always in PROF_<name>.json.
//
// Observability (all opt-in, none changes any result byte):
//
//	-metrics-addr :9090   serve the run's campaign for the lifetime of the
//	                      run: Prometheus text at /metrics (JSON with
//	                      ?format=json), status at /status, a live SSE
//	                      event stream at /events, plus /timeseries,
//	                      /debug/vars and /debug/pprof/ (":0" picks a
//	                      port, printed on stderr)
//	-trace-out DIR        record structured per-round/per-transfer events
//	                      into a bounded ring (-trace-cap events), fresh
//	                      for each experiment, written as
//	                      TRACE_<name>.jsonl under DIR — the files
//	                      witag-trace analyze/flag/replay consume
//	-progress             live trials/sec and ETA on stderr
//	-timeline             capture a windowed metric time-series per
//	                      experiment (one logical window every
//	                      -timeline-window completed trials) and write it
//	                      as TL_<name>.jsonl beside the BENCH artifacts;
//	                      requires -json DIR. Logical windows are
//	                      deterministic: the TL bytes are identical at
//	                      any -parallel. Live view:
//	                      /timeseries with -metrics-addr
//	-log run.jsonl        write the campaign's structured JSONL log there;
//	                      with -json DIR, a RUNS.jsonl run-ledger line is
//	                      also appended under DIR
//	                      (-log-level picks the floor: debug…error)
package main

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"os"
	"strings"

	"witag/internal/buildinfo"
	"witag/internal/cliflags"
	"witag/internal/clirun"
	"witag/internal/experiments"
	"witag/internal/fault"
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

// benchConfig is the parsed flags: the batch path's, then the
// experiment selector.
type benchConfig struct {
	clirun.Config
	experiment string
}

func main() {
	var cfg benchConfig
	flag.StringVar(&cfg.experiment, "experiment", "all", "which experiment to run: "+strings.Join(experimentChoices(experiments.Suite), ", "))
	flag.Int64Var(&cfg.Seed, "seed", 42, "root random seed")
	flag.IntVar(&cfg.Runs, "runs", 4, "measurement repetitions (figure 5; figure 6 uses 60)")
	flag.IntVar(&cfg.Rounds, "rounds", 700, "query rounds per measurement run")
	flag.StringVar(&cfg.FaultProfile, "fault", "bursty", "fault profile for the robustness sweep: "+strings.Join(fault.Names(), ", "))
	flag.IntVar(&cfg.Transfers, "transfers", 100, "transfers per sweep point per mode (robustness)")
	flag.StringVar(&cfg.Scheme, "transfer", "all", "transfer scheme for the coding sweep: all, "+strings.Join(experiments.CodingSchemes, ", "))
	flag.StringVar(&cfg.Traffic, "traffic", "all", "ambient-traffic profile for the coding sweep: all (the full profile grid), "+strings.Join(traffic.Names(), ", "))
	cfg.Flags.Register(flag.CommandLine)
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

// run checks the suite's selectors, naming the flag and the valid
// choices — a typo must not silently run nothing — and runs the selected
// experiments of suite, in table order, through the batch path.
func run(ctx context.Context, cfg benchConfig, suite []experiments.Experiment, stdout, stderr io.Writer) error {
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
	var selected []experiments.Experiment
	for _, e := range suite {
		if cfg.experiment == "all" || cfg.experiment == e.Name {
			selected = append(selected, e)
		}
	}
	cfg.Tool, cfg.Campaign, cfg.ProgressNoun = "witag-bench", "bench", "trials"
	cfg.StartAttrs = []any{
		slog.String("experiment", cfg.experiment), slog.Int64("seed", cfg.Seed),
		slog.Int("runs", cfg.Runs), slog.Int("rounds", cfg.Rounds),
	}
	return clirun.RunSuite(ctx, cfg.Config, selected, stdout, stderr)
}
