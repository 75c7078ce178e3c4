package clirun

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"witag/internal/experiments"
	"witag/internal/obs"
	"witag/internal/regress"
	"witag/internal/sim"
)

// fakeExperiment counts n on its own counter and records one trace event;
// its result fails its shape check with failure, when set.
func fakeExperiment(name string, n int64, failure string) experiments.Experiment {
	return experiments.Experiment{Name: name, Run: func(_ context.Context, r sim.Runner, _ experiments.SuiteConfig) (*experiments.Result, error) {
		r.Campaign.Registry.Counter("test." + name).Add(n)
		r.Campaign.Trace.Record(obs.Event{Kind: "round", Labels: name})
		return fakeResult(name, failure), nil
	}}
}

func fakeResult(name, failure string) *experiments.Result {
	return &experiments.Result{
		Render: func() string { return "table " + name + "\n" },
		ShapeChecks: func() error {
			if failure != "" {
				return errors.New(failure)
			}
			return nil
		},
		Series: map[string]string{"name": name},
	}
}

func testConfig(t *testing.T) Config {
	dir := t.TempDir()
	return Config{
		Tool: "witag-test", Campaign: "test", ProgressNoun: "trials",
		Flags: Flags{
			Parallel: 1, JSONDir: filepath.Join(dir, "json"), TraceOut: filepath.Join(dir, "trace"), TraceCap: 64,
			LogLevel: "info", Timeline: true, TimelineWin: 1,
		},
		SuiteConfig: experiments.SuiteConfig{
			Seed: 42, Runs: 1, Rounds: 10, FaultProfile: "bursty", Transfers: 1, Scheme: "all", Traffic: "all",
		},
	}
}

// TestRunWalksPastFailures walks a table of a passing experiment, one
// that fails its shape check and another passing one: every experiment
// must print and write all its artifacts, and only the failing one's may
// carry the failure.
func TestRunWalksPastFailures(t *testing.T) {
	cfg := testConfig(t)
	suite := []experiments.Experiment{
		fakeExperiment("alpha", 1, ""),
		fakeExperiment("beta", 5, "beta shape is wrong"),
		fakeExperiment("gamma", 1, ""),
	}
	var stdout, stderr bytes.Buffer
	err := RunSuite(context.Background(), cfg, suite, &stdout, &stderr)
	if err == nil || err.Error() != "failed experiments: beta" {
		t.Fatalf("RunSuite returned %v, want it to name beta alone", err)
	}
	// The failure prints once, as it happens; the returned error, which
	// the command prints last, only names the experiment.
	if want := "witag-test: beta: beta shape is wrong\n"; stderr.String() != want {
		t.Fatalf("stderr = %q, want %q", stderr.String(), want)
	}
	if want := "table alpha\n\ntable beta\n\ntable gamma\n\n"; stdout.String() != want {
		t.Fatalf("stdout = %q, want %q", stdout.String(), want)
	}

	arts, lerr := regress.LoadDir(cfg.JSONDir)
	if lerr != nil {
		t.Fatal(lerr)
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		want := ""
		if name == "beta" {
			want = "beta shape is wrong"
		}
		a := arts[name]
		if a == nil || a.Series == nil || a.Metrics == nil || a.Prof == nil {
			t.Fatalf("%s: BENCH, metrics or PROF missing: %+v", name, a)
		}
		for _, p := range []*regress.Provenance{a.SeriesProv, a.MetricsProv, a.ProfProv} {
			if p.Error != want {
				t.Errorf("%s: artifact stamped %q, want %q", name, p.Error, want)
			}
		}
		tr := readExport(t, filepath.Join(cfg.TraceOut, "TRACE_"+name+".jsonl"), obs.ReadJSONL)
		if tr.Error != want || len(tr.Events) != 1 || tr.Events[0].Labels != name {
			t.Errorf("%s: TRACE stamped %q with events %+v, want %q and its one event", name, tr.Error, tr.Events, want)
		}
		tl := readExport(t, filepath.Join(cfg.JSONDir, "TL_"+name+".jsonl"), obs.ReadTimelineLog)
		if tl.Error != want {
			t.Errorf("%s: TL stamped %q, want %q", name, tl.Error, want)
		}
	}

	// Each delta starts where the previous experiment's ended, failed or
	// not: beta's count stays out of gamma's.
	for name, want := range map[string]map[string]int64{
		"beta":  {"test.alpha": 0, "test.beta": 5},
		"gamma": {"test.alpha": 0, "test.beta": 0, "test.gamma": 1},
	} {
		for c, n := range want {
			if got := arts[name].Metrics.Counters[c]; got != n {
				t.Errorf("%s: %s = %d in its delta, want %d", name, c, got, n)
			}
		}
	}
}

// readExport decodes a JSONL export file with read.
func readExport[T any](t *testing.T, path string, read func(r io.Reader) (T, error)) T {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v, err := read(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return v
}

// TestRunStopsOnCancel cancels the context inside the second experiment:
// the third must never start.
func TestRunStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := false
	suite := []experiments.Experiment{
		fakeExperiment("alpha", 1, ""),
		{Name: "beta", Run: func(ctx context.Context, _ sim.Runner, _ experiments.SuiteConfig) (*experiments.Result, error) {
			cancel()
			return nil, ctx.Err()
		}},
		{Name: "gamma", Run: func(context.Context, sim.Runner, experiments.SuiteConfig) (*experiments.Result, error) {
			ran = true
			return fakeResult("gamma", ""), nil
		}},
	}
	err := RunSuite(ctx, testConfig(t), suite, &bytes.Buffer{}, &bytes.Buffer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSuite returned %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("the walk went on past cancellation")
	}
}

// TestRunPrintsCoverageOnlyWithProfile runs an experiment whose spans
// attribute a sliver of its trials' wall time. The coverage warning is a
// wall-clock figure: it prints only with -profile, right below that
// experiment's attribution table, while PROF_<name>.json keeps the
// figure either way.
func TestRunPrintsCoverageOnlyWithProfile(t *testing.T) {
	suite := []experiments.Experiment{{Name: "slow", Run: func(ctx context.Context, r sim.Runner, _ experiments.SuiteConfig) (*experiments.Result, error) {
		spans := r.Campaign.Observer.Spans
		err := r.Each(ctx, 2, func(context.Context, int) error {
			spans.End(0, spans.Start())
			time.Sleep(2 * time.Millisecond)
			return nil
		})
		return fakeResult("slow", ""), err
	}}}
	for _, profile := range []bool{false, true} {
		cfg := testConfig(t)
		if profile {
			cfg.ProfileDir = t.TempDir()
		}
		var stderr bytes.Buffer
		if err := RunSuite(context.Background(), cfg, suite, io.Discard, &stderr); err != nil {
			t.Fatal(err)
		}
		arts, err := regress.LoadDir(cfg.JSONDir)
		if err != nil {
			t.Fatal(err)
		}
		if cov := arts["slow"].Prof.Coverage; cov <= 0 || cov >= 0.9 {
			t.Fatalf("PROF coverage = %v, want a sliver", cov)
		}
		warn := strings.Index(stderr.String(), "perf: slow: spans attribute only ")
		if !profile {
			if stderr.Len() != 0 {
				t.Errorf("without -profile stderr = %q, want nothing", stderr.String())
			}
			continue
		}
		if table := strings.Index(stderr.String(), "perf slow:\n"); table != 0 || warn <= table {
			t.Errorf("with -profile stderr = %q, want the table then the coverage warning", stderr.String())
		}
	}
}
