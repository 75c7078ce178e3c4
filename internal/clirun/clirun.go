// Package clirun is the startup and teardown the campaign-running CLIs
// (witag-bench, witag-sim) share: a signal-cancelled context, the
// process's one campaign scope (progress reporter, JSONL log, trace
// ring), the optional -metrics-addr server over it, the -trace export,
// and the final campaign status plus RUNS.jsonl ledger line however the
// run ends.
// Everything it wires is a sink: attaching it draws no RNG values and
// changes no result byte.
package clirun

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"witag/internal/buildinfo"
	"witag/internal/obs"
)

// Main runs fn under a context that SIGINT and SIGTERM cancel, and exits
// with status 1 and "tool: err" on stderr when fn fails.
func Main(tool string, fn func(ctx context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := fn(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, tool+":", err)
		os.Exit(1)
	}
}

// Options configures one invocation's campaign scope. Paths are assumed
// validated (internal/cliflags) before Start.
type Options struct {
	// Tool names the command in messages and the ledger ("witag-bench").
	Tool string
	// Campaign is the campaign's ID ("bench", "sim").
	Campaign string
	// ProgressNoun, when non-empty, turns on live progress on stderr,
	// counting this unit ("trials", "runs").
	ProgressNoun string
	// LogPath, when non-empty, receives the campaign's JSONL log at
	// LogLevel.
	LogPath  string
	LogLevel slog.Leveler
	// StartAttrs are the "run started" log line's attributes.
	StartAttrs []any
	// TraceCap > 0 gives the campaign a trace ring of that capacity.
	TraceCap int
	// TracePath, when non-empty, receives the ring as JSONL at Finish.
	TracePath string
	// MetricsAddr, when non-empty, serves the campaign there for the run.
	MetricsAddr string
	// LedgerDir, when non-empty, receives one RUNS.jsonl line at Finish.
	LedgerDir string
	// Provenance is the ledger line's provenance stamp.
	Provenance any
}

// Run is a started campaign scope.
type Run struct {
	// Campaign is the invocation's one instrumentation handle.
	Campaign *obs.Campaign
	// Stderr takes the run's notes for standard error. With progress on,
	// each note first ends the open progress line.
	Stderr io.Writer

	ctx       context.Context
	opts      Options
	logFile   *os.File
	server    *obs.Server // the -metrics-addr listener (nil when off)
	unhook    func() bool
	artifacts []string
}

// Start opens the log file, builds the campaign, logs "run started" and,
// with MetricsAddr, serves the campaign until Finish or until ctx is
// cancelled. The caller must call Finish once Start succeeds; when Start
// fails after the campaign exists (the listener cannot bind), it
// finishes the run itself, ledger line included.
func Start(ctx context.Context, opts Options) (*Run, error) {
	r := &Run{ctx: ctx, opts: opts}
	copts := obs.CampaignOptions{TraceCap: opts.TraceCap, LogLevel: opts.LogLevel}
	if opts.LogPath != "" {
		f, err := os.Create(opts.LogPath)
		if err != nil {
			return nil, fmt.Errorf("-log: %w", err)
		}
		r.logFile = f
		copts.LogW = f
	}
	if opts.ProgressNoun != "" {
		copts.Progress = obs.NewProgress(os.Stderr, opts.ProgressNoun)
	}
	camp := obs.NewCampaign(opts.Campaign, copts)
	r.Campaign, r.Stderr = camp, camp.Progress.Notes(os.Stderr)
	camp.Logger.Info("run started", opts.StartAttrs...)

	if opts.MetricsAddr != "" {
		srv, err := obs.Serve(opts.MetricsAddr, camp)
		if err != nil {
			r.Finish(err)
			return nil, err
		}
		r.server = srv
		// Tear the listener down on Ctrl-C too, not only at Finish: a
		// cancelled run must release its port promptly. Close is
		// idempotent, so the two paths race safely.
		r.unhook = context.AfterFunc(ctx, func() { srv.Shutdown(); srv.Close() })
		fmt.Fprintf(r.Stderr, "metrics: http://%s/metrics (also /campaigns, /campaigns/%s/events, /debug/pprof/)\n", srv.Addr, camp.ID)
	}
	return r, nil
}

// AddArtifact records files the run wrote, for the ledger line.
func (r *Run) AddArtifact(names ...string) {
	r.artifacts = append(r.artifacts, names...)
}

// ExportTrace writes the campaign's trace ring to path as JSONL, with
// failure (empty for none) on its summary record, and then resets it, so
// the next export reads like one from a fresh ring.
func (r *Run) ExportTrace(path, failure string) error {
	rec := r.Campaign.Trace
	if err := WriteJSONL(path, rec, failure); err != nil {
		return err
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(r.Stderr, "trace: wrote %d events to %s (%d older events dropped; raise -trace-cap)\n", rec.Len(), path, d)
	} else {
		fmt.Fprintf(r.Stderr, "trace: wrote %d events to %s\n", rec.Len(), path)
	}
	rec.Reset()
	return nil
}

// Finish ends the run with outcome err: it writes the -trace export,
// stops the metrics server, marks the campaign done or failed (which
// ends the progress line), logs "run finished", appends the ledger line
// ("ok", "error", or "cancelled" when err follows a cancelled context)
// and closes the log file. Export and ledger failures are reported on
// stderr, never returned: they must not mask err.
func (r *Run) Finish(err error) {
	if r.opts.TracePath != "" {
		if terr := r.ExportTrace(r.opts.TracePath, ErrorText(err)); terr != nil {
			fmt.Fprintf(r.Stderr, "%s: trace: %v\n", r.opts.Tool, terr)
		}
	}
	if r.server != nil {
		r.unhook()
		r.server.Close()
	}
	camp := r.Campaign
	camp.Finish(err)
	outcome := "ok"
	switch {
	case err != nil && r.ctx.Err() != nil:
		outcome = "cancelled"
	case err != nil:
		outcome = "error"
	}
	camp.Logger.Info("run finished", slog.String("outcome", outcome), slog.Int64("wall_ms", camp.WallMs()))
	if r.opts.LedgerDir != "" {
		rec := obs.RunRecord{
			Tool: r.opts.Tool, Campaign: camp.ID, Outcome: outcome,
			WallMs: camp.WallMs(), Artifacts: r.artifacts, Provenance: r.opts.Provenance,
			Build: buildinfo.Current(r.opts.Tool),
		}
		if err != nil {
			rec.Error = err.Error()
		}
		if lerr := obs.AppendRunRecord(r.opts.LedgerDir, rec); lerr != nil {
			fmt.Fprintf(r.Stderr, "%s: ledger: %v\n", r.opts.Tool, lerr)
		}
	}
	if r.logFile != nil {
		r.logFile.Close()
	}
}

// WriteJSONL creates path and writes src's JSONL export into it (a trace
// ring or a timeline), with failure (empty for none) on its summary.
func WriteJSONL(path string, src interface{ WriteJSONLFailed(io.Writer, string) error }, failure string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := src.WriteJSONLFailed(f, failure); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ErrorText is err's message, or "" for nil: the failure stamp of an
// artifact.
func ErrorText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
