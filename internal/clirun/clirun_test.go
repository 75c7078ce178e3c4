package clirun

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"witag/internal/experiments"
	"witag/internal/obs"
	"witag/internal/sim"
)

func readLedger(t *testing.T, dir string) []obs.RunRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, obs.RunLedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.RunRecord
	for i, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasSuffix(line, "\n") {
			t.Fatalf("ledger line %d has no newline: %q", i+1, line)
		}
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("ledger line %d: %v", i+1, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestLedgerOutcomes runs a passing suite, a failing one and a cancelled
// one into one -json directory: each appends its ledger line, with the
// outcome, the failure in full and the artifacts it wrote.
func TestLedgerOutcomes(t *testing.T) {
	cfg := testConfig(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		ctx context.Context
		e   experiments.Experiment
	}{
		{context.Background(), fakeExperiment("alpha", 1, "")},
		{context.Background(), fakeExperiment("beta", 1, "boom")},
		{cancelled, fakeExperiment("gamma", 1, "")},
	} {
		RunSuite(c.ctx, cfg, []experiments.Experiment{c.e}, io.Discard, io.Discard)
	}
	recs := readLedger(t, cfg.JSONDir)
	if len(recs) != 3 {
		t.Fatalf("%d ledger lines, want 3", len(recs))
	}
	for i, want := range []struct {
		outcome, err string
		artifacts    int
	}{
		{"ok", "", 5}, {"error", "beta: boom", 5}, {"cancelled", "context canceled", 0},
	} {
		got := recs[i]
		if got.Outcome != want.outcome || got.Error != want.err {
			t.Errorf("line %d: outcome %q error %q, want %q %q", i, got.Outcome, got.Error, want.outcome, want.err)
		}
		if got.Tool != "witag-test" || got.Campaign != "test" || len(got.Artifacts) != want.artifacts {
			t.Errorf("line %d: %+v, want %d artifacts", i, got, want.artifacts)
		}
	}
	if got, want := strings.Join(recs[0].Artifacts, " "), "BENCH_alpha.json BENCH_alpha.metrics.json PROF_alpha.json TL_alpha.jsonl "+
		filepath.Join(cfg.TraceOut, "TRACE_alpha.jsonl"); got != want {
		t.Errorf("artifacts %q, want %q", got, want)
	}
}

// recording is an experiment that records n events into the campaign's
// ring.
func recording(name string, n int) experiments.Experiment {
	return experiments.Experiment{Name: name, Run: func(_ context.Context, r sim.Runner, _ experiments.SuiteConfig) (*experiments.Result, error) {
		for i := 0; i < n; i++ {
			r.Campaign.Trace.Record(obs.Event{Kind: "round", Trial: i, Round: i + 1})
		}
		return fakeResult(name, ""), nil
	}}
}

func TestTraceExportEndsInSummary(t *testing.T) {
	cfg := testConfig(t)
	cfg.TraceCap = 4
	var stderr bytes.Buffer
	if err := RunSuite(context.Background(), cfg, []experiments.Experiment{recording("alpha", 6)}, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.TraceOut, "TRACE_alpha.jsonl")
	tr := readExport(t, path, obs.ReadJSONL)
	if tr.Truncated || len(tr.Events) != 4 || tr.Total != 6 || tr.Dropped != 2 {
		t.Fatalf("export read back as %d events, total %d, dropped %d, truncated %v; want 4, 6, 2, false",
			len(tr.Events), tr.Total, tr.Dropped, tr.Truncated)
	}
	if want := "trace: wrote 4 events to " + path + " (2 older events dropped; raise -trace-cap)\n"; stderr.String() != want {
		t.Fatalf("stderr = %q, want %q", stderr.String(), want)
	}
}

// TestExportTraceResetsRing checks that each per-experiment export after
// the first reads exactly like one from a fresh ring of the same
// capacity: events, totals and dropped count all start over.
func TestExportTraceResetsRing(t *testing.T) {
	cfg := testConfig(t)
	cfg.TraceCap = 4
	suite := []experiments.Experiment{recording("alpha", 7), recording("beta", 3)}
	if err := RunSuite(context.Background(), cfg, suite, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}

	fresh := obs.NewRecorder(4)
	for i := 0; i < 3; i++ {
		fresh.Record(obs.Event{Kind: "round", Trial: i, Round: i + 1})
	}
	var want bytes.Buffer
	if err := fresh.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(cfg.TraceOut, "TRACE_beta.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("export after reset differs from a fresh ring's:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// metricsNote matches the note that names the -metrics-addr listener.
var metricsNote = regexp.MustCompile(`^metrics: http://(127\.0\.0\.1:\d+)/metrics \(also /status, /events, /timeseries, /debug/pprof/\)\n`)

// TestListenerReleasedOnCancel cancels the run inside its experiment: the
// port the run served must come free while the experiment still runs,
// not only when the run ends.
func TestListenerReleasedOnCancel(t *testing.T) {
	cfg := testConfig(t)
	cfg.MetricsAddr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr bytes.Buffer
	suite := []experiments.Experiment{{Name: "alpha", Run: func(ctx context.Context, _ sim.Runner, _ experiments.SuiteConfig) (*experiments.Result, error) {
		m := metricsNote.FindStringSubmatch(stderr.String())
		if m == nil {
			t.Fatalf("stderr = %q, want the metrics note", stderr.String())
		}
		addr := m[1]
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("listener not serving: %v", err)
		}
		conn.Close()

		cancel()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			ln, err := net.Listen("tcp", addr)
			if err == nil {
				ln.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("listener on %s still bound after cancel: %v", addr, err)
			}
		}
		return nil, ctx.Err()
	}}}
	if err := RunSuite(ctx, cfg, suite, io.Discard, &stderr); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSuite returned %v, want context.Canceled", err)
	}
}

// TestBusyMetricsAddrRefused holds the -metrics-addr port before the run:
// the run must be refused naming the flag before anything starts, with
// no log file, ledger line or artifact written.
func TestBusyMetricsAddrRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := testConfig(t)
	cfg.MetricsAddr, cfg.LogPath = ln.Addr().String(), filepath.Join(t.TempDir(), "LOG.jsonl")
	var stdout, stderr bytes.Buffer
	err = RunSuite(context.Background(), cfg, []experiments.Experiment{fakeExperiment("alpha", 1, "")}, &stdout, &stderr)
	if err == nil || !strings.HasPrefix(err.Error(), "-metrics-addr") {
		t.Fatalf("RunSuite = %v, want an error naming -metrics-addr", err)
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("the refused run wrote stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	if _, serr := os.Stat(cfg.LogPath); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("the refused run created its log: %v", serr)
	}
	for _, dir := range []string{cfg.JSONDir, cfg.TraceOut} {
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("the refused run wrote %d files under %s, the first %s", len(entries), dir, entries[0].Name())
		}
	}
}

// TestRunNotesGoToItsStderr runs with -metrics-addr, -trace-out and
// -progress: the metrics note, the trace note and the final progress
// line must all land on the stderr RunSuite is given, in that order.
func TestRunNotesGoToItsStderr(t *testing.T) {
	cfg := testConfig(t)
	cfg.MetricsAddr, cfg.Progress = "127.0.0.1:0", true
	var stderr bytes.Buffer
	if err := RunSuite(context.Background(), cfg, []experiments.Experiment{fakeExperiment("alpha", 1, "")}, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	note := metricsNote.FindString(stderr.String())
	if note == "" {
		t.Fatalf("stderr = %q, want the metrics note first", stderr.String())
	}
	rest := stderr.String()[len(note):]
	if want := "trace: wrote 1 events to " + filepath.Join(cfg.TraceOut, "TRACE_alpha.jsonl") + "\n" +
		"\rtrials 0/0 (0.0%) 0.0/s ETA ?   \n"; rest != want {
		t.Fatalf("stderr after the metrics note = %q, want %q", rest, want)
	}
}

// TestRunRefusesBadFlags checks that each unusable batch flag is refused,
// naming it, before the campaign starts: no ledger line is written.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, c := range []struct {
		name, flag string
		edit       func(*Config)
	}{
		{"timeline-window 0", "-timeline-window", func(c *Config) { c.TimelineWin = 0 }},
		{"trace-cap 0", "-trace-cap", func(c *Config) { c.TraceCap = 0 }},
		{"trace-cap -1", "-trace-cap", func(c *Config) { c.TraceCap = -1 }},
		{"log-level", "-log-level", func(c *Config) { c.LogLevel = "loud" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(t)
			c.edit(&cfg)
			err := RunSuite(context.Background(), cfg, []experiments.Experiment{fakeExperiment("alpha", 1, "")}, io.Discard, io.Discard)
			if err == nil || !strings.HasPrefix(err.Error(), c.flag) {
				t.Fatalf("RunSuite = %v, want an error naming %s", err, c.flag)
			}
			if _, serr := os.Stat(filepath.Join(cfg.JSONDir, obs.RunLedgerFile)); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("the run started before %s was refused: %v", c.flag, serr)
			}
		})
	}
}
