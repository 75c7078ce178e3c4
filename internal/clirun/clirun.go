// Package clirun is the batch path the campaign-running CLIs
// (witag-bench, witag-sim) share: their common flags, a signal-cancelled
// context, the process's one campaign scope (progress reporter, JSONL
// log, trace ring), the optional -metrics-addr server over it, the
// per-experiment loop that writes each experiment's artifacts, and the
// final campaign status plus RUNS.jsonl ledger line however the run
// ends.
// Everything it wires is a sink: attaching it draws no RNG values and
// changes no result byte.
package clirun

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
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
