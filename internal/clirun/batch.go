package clirun

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
	"witag/internal/experiments"
	"witag/internal/obs"
	"witag/internal/perf"
	"witag/internal/regress"
	"witag/internal/sim"
)

// Flags are the batch flags every campaign CLI shares, registered by
// Register so their defaults and help text are the same in each.
type Flags struct {
	Parallel   int
	JSONDir    string
	ProfileDir string

	MetricsAddr string
	TraceOut    string
	TraceCap    int
	Progress    bool
	LogPath     string
	LogLevel    string

	Timeline    bool
	TimelineWin int
}

// Register defines the shared flags on fs, bound to f.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Parallel, "parallel", 0, "concurrent trial workers; <= 0 means all CPUs")
	fs.StringVar(&f.JSONDir, "json", "", "directory to write BENCH_<name>.json series into (empty: off)")
	fs.StringVar(&f.ProfileDir, "profile", "", "write cpu/heap/allocs pprof profiles per experiment under this directory (empty: off)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address during the run (empty: off)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write one TRACE_<name>.jsonl per experiment under this directory (empty: off)")
	fs.IntVar(&f.TraceCap, "trace-cap", obs.DefaultTraceCap, "trace ring capacity in events; oldest events are dropped beyond it")
	fs.BoolVar(&f.Progress, "progress", false, "live trial progress (rate, ETA) on stderr")
	fs.StringVar(&f.LogPath, "log", "", "write the campaign's structured JSONL log to this file (empty: off)")
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum log level: "+strings.Join(cliflags.LogLevels, ", "))
	fs.BoolVar(&f.Timeline, "timeline", false, "write a TL_<name>.jsonl windowed time-series per experiment under -json DIR")
	fs.IntVar(&f.TimelineWin, "timeline-window", obs.DefaultTimelineWindow, "completed trials per logical timeline window")
}

// Config is one batch invocation: the command that runs it, its shared
// flags, and the suite settings each experiment is handed.
type Config struct {
	// Tool names the command in messages and the ledger ("witag-bench").
	Tool string
	// Campaign is the campaign's ID ("bench", "sim").
	Campaign string
	// ProgressNoun is the unit -progress counts ("trials", "runs").
	ProgressNoun string
	// StartAttrs are the "run started" log line's attributes.
	StartAttrs []any

	Flags
	experiments.SuiteConfig
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
func provenance(cfg Config) regress.Provenance {
	workers := cfg.Parallel
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

// RunSuite runs every experiment of suite, in order, printing each table
// to stdout. An experiment that fails (a run error or a failed shape
// check) is reported on stderr as it happens, its artifacts are stamped
// with the failure, and the walk goes on: only a cancelled ctx stops it
// early. The returned error only names the failed experiments, since
// each failure was printed in full already; the run's ledger line
// carries them in full.
func RunSuite(ctx context.Context, cfg Config, suite []experiments.Experiment, stdout, stderr io.Writer) error {
	// Up-front flag validation, shared with the other CLIs via
	// internal/cliflags: reject unusable paths before any work, naming
	// the flag.
	if cfg.Timeline && cfg.JSONDir == "" {
		return fmt.Errorf("-timeline writes TL_<name>.jsonl beside the BENCH artifacts and needs -json DIR")
	}
	if cfg.TimelineWin <= 0 {
		return fmt.Errorf("-timeline-window must be >= 1, got %d", cfg.TimelineWin)
	}
	if cfg.TraceCap <= 0 {
		return fmt.Errorf("-trace-cap must be >= 1, got %d", cfg.TraceCap)
	}
	logLevel, verr := cliflags.LogLevel("-log-level", cfg.LogLevel)
	if verr != nil {
		return verr
	}
	for _, v := range []error{
		cliflags.OutputDir("-profile", cfg.ProfileDir),
		cliflags.OutputDir("-json", cfg.JSONDir),
		cliflags.OutputDir("-trace-out", cfg.TraceOut),
		cliflags.OutputFile("-log", cfg.LogPath),
	} {
		if v != nil {
			return v
		}
	}
	// -metrics-addr is bound here, once, before the log file or the
	// campaign exists: a busy port is refused like any other bad flag,
	// and the port stays held until the server takes the listener.
	ln, err := cliflags.MetricsAddr("-metrics-addr", cfg.MetricsAddr)
	if err != nil {
		return err
	}

	// Campaign wiring: this invocation is the process's one campaign
	// scope — its own registry, trace ring, progress reporter,
	// structured logger and SSE event broker — passed explicitly to every
	// harness, which instruments the systems, injectors, transferers and
	// runners it builds through it. The run ledger lands beside the BENCH
	// artifacts (no -json directory, no ledger).
	runProv := provenance(cfg)
	copts := obs.CampaignOptions{LogLevel: logLevel}
	if cfg.TraceOut != "" {
		copts.TraceCap = cfg.TraceCap
	}
	if cfg.LogPath != "" {
		f, err := os.Create(cfg.LogPath)
		if err != nil {
			if ln != nil {
				ln.Close()
			}
			return fmt.Errorf("-log: %w", err)
		}
		defer f.Close()
		copts.LogW = f
	}
	if cfg.Progress {
		copts.Progress = obs.NewProgress(stderr, cfg.ProgressNoun)
	}
	camp := obs.NewCampaign(cfg.Campaign, copts)
	// Every note from here on first ends an open -progress line.
	stderr = camp.Progress.Notes(stderr)
	camp.Logger.Info("run started", cfg.StartAttrs...)

	// However the run ends, mark the campaign done or failed (which ends
	// the progress line), log "run finished" and append the ledger line:
	// "ok", "error", or "cancelled" when the failure follows a cancelled
	// ctx. A ledger failure is reported on stderr, never returned: it
	// must not mask the run's own outcome.
	var full error // every failure, and a cancellation, in full
	var artifacts []string
	defer func() {
		camp.Finish(full)
		outcome := "ok"
		switch {
		case full != nil && ctx.Err() != nil:
			outcome = "cancelled"
		case full != nil:
			outcome = "error"
		}
		camp.Logger.Info("run finished", slog.String("outcome", outcome), slog.Int64("wall_ms", camp.WallMs()))
		if cfg.JSONDir == "" {
			return
		}
		rec := obs.RunRecord{
			Tool: cfg.Tool, Campaign: camp.ID, Outcome: outcome, Error: ErrorText(full),
			WallMs: camp.WallMs(), Artifacts: artifacts, Provenance: runProv,
			Build: buildinfo.Current(cfg.Tool),
		}
		if lerr := obs.AppendRunRecord(cfg.JSONDir, rec); lerr != nil {
			fmt.Fprintf(stderr, "%s: ledger: %v\n", cfg.Tool, lerr)
		}
	}()

	if ln != nil {
		srv := obs.Serve(ln, camp)
		// Tear the listener down on Ctrl-C too, not only when the run
		// ends: a cancelled run must release its port promptly. Close is
		// idempotent, so the two paths race safely.
		unhook := context.AfterFunc(ctx, func() { srv.Shutdown(); srv.Close() })
		defer func() { unhook(); srv.Close() }()
		fmt.Fprintf(stderr, "metrics: http://%s/metrics (also /status, /events, /timeseries, /debug/pprof/)\n", srv.Addr)
	}
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
		if cfg.Timeline {
			tl = obs.NewTimeline(reg, obs.TimelineConfig{WindowTrials: cfg.TimelineWin})
			camp.SetTimeline(tl)
			defer camp.SetTimeline(nil)
		}
		var cpuFile *os.File
		if cfg.ProfileDir != "" {
			var perr error
			cpuFile, perr = os.Create(filepath.Join(cfg.ProfileDir, "cpu_"+name+".pprof"))
			if perr != nil {
				return perr
			}
			if perr := pprof.StartCPUProfile(cpuFile); perr != nil {
				cpuFile.Close()
				return perr
			}
		}
		res, failure := e.Run(ctx, sim.Runner{Workers: cfg.Parallel, Campaign: camp}, cfg.SuiteConfig)
		if res != nil {
			fmt.Fprintln(stdout, res.Render())
			if failure == nil && res.ShapeChecks != nil {
				failure = res.ShapeChecks()
			}
		}
		errs := []error{failure}
		stamp := ErrorText(failure)

		now := reg.Snapshot()
		delta := now.Delta(lastSnap)
		lastSnap = now
		rep := perf.FromSnapshot(delta)
		if cfg.ProfileDir != "" && rep.Trials > 0 {
			fmt.Fprintf(stderr, "perf %s:\n%s", name, rep.Render())
			// Low coverage on a span-bearing experiment means untimed
			// work crept into the trials. Analytic experiments (fig3,
			// s41, compare) record no spans at all (zero coverage) and
			// stay quiet — losing instrumentation entirely is the gate's
			// structural check, not this warning. Coverage is a ratio
			// of wall times, so it prints only beside the table.
			if rep.Coverage > 0 && rep.Coverage < 0.9 {
				fmt.Fprintf(stderr, "perf: %s: spans attribute only %.1f%% of trial wall time\n", name, 100*rep.Coverage)
			}
		}
		// Live phase-attribution snapshot for /events watchers, mirroring the PROF artifact written below.
		rep.Publish(camp, name)
		camp.Logger.Info("experiment finished", slog.String("experiment", name),
			slog.Int64("trials", delta.Counters["runner.trials_started"]),
			slog.Int64("rounds", delta.Counters["core.rounds"]))
		if cfg.JSONDir != "" {
			prov := runProv
			prov.Experiment, prov.Trials, prov.Error = name, delta.Counters["runner.trials_started"], stamp
			if res != nil {
				errs = append(errs, regress.WriteSeries(cfg.JSONDir, name, prov, res.Series))
				artifacts = append(artifacts, "BENCH_"+name+".json")
			}
			errs = append(errs, regress.WriteMetrics(cfg.JSONDir, name, prov, delta), regress.WriteProf(cfg.JSONDir, name, prov, rep))
			artifacts = append(artifacts, "BENCH_"+name+".metrics.json", "PROF_"+name+".json")
		}

		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close(), writeMemProfiles(cfg.ProfileDir, name))
		}
		if tl != nil {
			tl.Flush()
			path := filepath.Join(cfg.JSONDir, "TL_"+name+".jsonl")
			errs = append(errs, WriteJSONL(path, tl, stamp))
			artifacts = append(artifacts, "TL_"+name+".jsonl")
			if d := tl.Dropped(); d > 0 {
				fmt.Fprintf(stderr, "timeline: wrote %d windows to %s (%d older windows dropped)\n", tl.Total()-d, path, d)
			}
		}
		if cfg.TraceOut != "" {
			path := filepath.Join(cfg.TraceOut, "TRACE_"+name+".jsonl")
			artifacts = append(artifacts, path)
			errs = append(errs, exportTrace(camp.Trace, path, stamp, stderr))
		}
		return errors.Join(errs...)
	}

	var failures []error
	var failed []string
	for _, e := range suite {
		if ctx.Err() != nil {
			break
		}
		if ferr := runExperiment(e); ferr != nil {
			ferr = fmt.Errorf("%s: %w", e.Name, ferr)
			fmt.Fprintln(stderr, cfg.Tool+":", ferr)
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

// exportTrace writes rec to path as JSONL, with failure (empty for none)
// on its summary record, notes the export on stderr and then resets rec,
// so the next export reads like one from a fresh ring.
func exportTrace(rec *obs.Recorder, path, failure string, stderr io.Writer) error {
	if err := WriteJSONL(path, rec, failure); err != nil {
		return err
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(stderr, "trace: wrote %d events to %s (%d older events dropped; raise -trace-cap)\n", rec.Len(), path, d)
	} else {
		fmt.Fprintf(stderr, "trace: wrote %d events to %s\n", rec.Len(), path)
	}
	rec.Reset()
	return nil
}
