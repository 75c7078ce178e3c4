package obs

import (
	"io"
	"log/slog"
	"time"
)

// Structured logging for campaigns: log/slog's JSON handler, writing one
// JSON object per line (JSONL, the same framing as the trace files it
// sits beside).
//
//   - Field order is fixed — ts, level, msg, campaign (bound by
//     NewCampaign), then the record's attrs in call order — so two runs
//     logging the same things produce line-for-line comparable files.
//   - The only nondeterministic field is "ts" (wall clock, UTC RFC 3339
//     with nanoseconds). It is named in obstest.VolatileLogKeys, and
//     obstest.CanonicalizeLog strips every such key, so the determinism
//     suite can require canonicalized logs to be byte-identical across
//     worker counts while the raw file still carries real timestamps for
//     humans.
//   - Logging is a pure sink: nothing in the simulation reads a logger,
//     and the harness-level call sites run sequentially (per experiment,
//     per campaign), never per trial on worker goroutines — so enabling
//     a log file cannot perturb or reorder science output.
//
// The handler writes each line with one Write under its own mutex, so a
// crashed run keeps everything it logged.

// NewLogger returns a slog.Logger writing records at or above level
// (slog.LevelInfo when nil) to w as JSONL.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: tsAttr}))
}

// tsAttr writes the record's time as "ts" in UTC. A top-level time-valued
// attribute keyed "time" is indistinguishable from the record's and is
// renamed too; no call site logs one.
func tsAttr(groups []string, a slog.Attr) slog.Attr {
	if len(groups) == 0 && a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime {
		return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
	}
	return a
}
