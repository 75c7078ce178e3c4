package regress

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"witag/internal/obs"
)

// fixtureSeries is a fig5-shaped science series for gate tests.
type fixtureSeries struct {
	Points []fixturePoint
	Runs   int
}

type fixturePoint struct {
	DistanceM      float64
	BER            float64
	BERStd         float64
	ThroughputKbps float64
}

func fixture() fixtureSeries {
	return fixtureSeries{
		Runs: 4,
		Points: []fixturePoint{
			{DistanceM: 1, BER: 0.010, BERStd: 0.002, ThroughputKbps: 40.1},
			{DistanceM: 4, BER: 0.020, BERStd: 0.003, ThroughputKbps: 39.2},
		},
	}
}

func fixtureSnapshot() obs.Snapshot {
	return obs.Snapshot{
		Counters: map[string]int64{
			"phy.rounds":            800,
			"runner.trials_started": 8,
		},
		Histograms: map[string]obs.HistogramSnapshot{
			"runner.trial_wall_ms": {
				Bounds: []int64{1, 2, 4, 8},
				Counts: []int64{0, 2, 4, 2, 0},
				Sum:    30, Count: 8,
			},
		},
		Volatile: map[string]bool{"runner.trial_wall_ms": true},
	}
}

func fixtureProv() Provenance {
	return Provenance{
		GitSHA: "abc123def456", GoVersion: "go1.22",
		TimestampUTC: "2026-01-01T00:00:00Z",
		Experiment:   "fig5", Seed: 42, Trials: 8, Runs: 4, Workers: 2,
	}
}

// writeFixture lays one experiment's artifact pair into dir.
func writeFixture(t *testing.T, dir string, series fixtureSeries, snap obs.Snapshot) {
	t.Helper()
	if err := WriteSeries(dir, "fig5", fixtureProv(), series); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetrics(dir, "fig5", fixtureProv(), snap); err != nil {
		t.Fatal(err)
	}
}

func gateFixture(t *testing.T, mutate func(s *fixtureSeries, snap *obs.Snapshot), opts Options) *Report {
	t.Helper()
	baseDir := t.TempDir()
	candDir := t.TempDir()
	writeFixture(t, baseDir, fixture(), fixtureSnapshot())
	s, snap := fixture(), fixtureSnapshot()
	if mutate != nil {
		mutate(&s, &snap)
	}
	writeFixture(t, candDir, s, snap)
	rep, err := Gate(baseDir, candDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGateIdenticalPasses(t *testing.T) {
	rep := gateFixture(t, nil, DefaultOptions())
	if rep.Verdict != ClassOK {
		j, _ := rep.JSON()
		t.Fatalf("identical artifacts gated %s, want ok\n%s", rep.Verdict, j)
	}
}

func TestGatePerturbedBERFails(t *testing.T) {
	rep := gateFixture(t, func(s *fixtureSeries, _ *obs.Snapshot) {
		s.Points[1].BER *= 10 // far beyond the ±10% band, significant under Welch
	}, DefaultOptions())
	if rep.Verdict != ClassRegression {
		t.Fatalf("10x BER gated %s, want regression", rep.Verdict)
	}
	found := false
	for _, p := range rep.Experiments[0].Points {
		if p.Path == "Points[1].BER" && p.Class == ClassRegression {
			found = true
		}
	}
	if !found {
		j, _ := rep.JSON()
		t.Fatalf("no regression verdict on Points[1].BER\n%s", j)
	}
}

func TestGateCounterOffByOneFails(t *testing.T) {
	rep := gateFixture(t, func(_ *fixtureSeries, snap *obs.Snapshot) {
		snap.Counters["phy.rounds"]++ // the equality tier tolerates nothing
	}, DefaultOptions())
	if rep.Verdict != ClassRegression {
		t.Fatalf("counter off by one gated %s, want regression", rep.Verdict)
	}
	diffs := rep.Experiments[0].MetricDiffs
	if len(diffs) != 1 || diffs[0].Name != "phy.rounds" || diffs[0].Cand-diffs[0].Base != 1 {
		t.Fatalf("unexpected metric diffs: %+v", diffs)
	}
}

func TestGateVolatileHistogramNeverEqualityGated(t *testing.T) {
	// A wall-clock histogram may differ arbitrarily without tripping the
	// equality tier.
	rep := gateFixture(t, func(_ *fixtureSeries, snap *obs.Snapshot) {
		h := snap.Histograms["runner.trial_wall_ms"]
		h.Counts = []int64{0, 0, 0, 0, 8}
		h.Sum, h.Count = 900, 8
		snap.Histograms["runner.trial_wall_ms"] = h
	}, DefaultOptions())
	if rep.Verdict != ClassOK {
		j, _ := rep.JSON()
		t.Fatalf("volatile-only change gated %s, want ok\n%s", rep.Verdict, j)
	}
}

func TestGateMissingCandidateArtifact(t *testing.T) {
	baseDir, candDir := t.TempDir(), t.TempDir()
	writeFixture(t, baseDir, fixture(), fixtureSnapshot())
	// Candidate dir holds a different experiment only.
	if err := WriteSeries(candDir, "other", Provenance{Seed: 1}, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	rep, err := Gate(baseDir, candDir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != ClassRegression {
		t.Fatalf("vanished experiment gated %s, want regression", rep.Verdict)
	}
	byName := map[string]string{}
	for _, e := range rep.Experiments {
		byName[e.Name] = e.Missing
	}
	if byName["fig5"] != "candidate" || byName["other"] != "baseline" {
		t.Fatalf("missing sides misattributed: %v", byName)
	}
}

// TestGateRefusesFailedCandidate gates a candidate whose drifty artifacts
// are stamped with a failure against a baseline written before artifacts
// could carry one. The old baseline must still load, and the failure must
// be a regression that names the experiment even where the science
// matches.
func TestGateRefusesFailedCandidate(t *testing.T) {
	baseDir, candDir := filepath.Join("testdata", "golden", "baseline"), t.TempDir()
	base, err := LoadDir(baseDir)
	if err != nil {
		t.Fatalf("a baseline without failure stamps no longer loads: %v", err)
	}
	const failure = "experiments: a run hit BER 0.48"
	for name, a := range base {
		prov := *a.SeriesProv
		if name == "drifty" {
			prov.Error = failure
		}
		if err := WriteSeries(candDir, name, prov, a.Series); err != nil {
			t.Fatal(err)
		}
		if a.Metrics != nil {
			if err := WriteMetrics(candDir, name, prov, *a.Metrics); err != nil {
				t.Fatal(err)
			}
		}
		if a.Prof != nil {
			if err := WriteProf(candDir, name, prov, a.Prof); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := Gate(baseDir, candDir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != ClassRegression {
		t.Fatalf("failed candidate gated %s, want regression", rep.Verdict)
	}
	for _, e := range rep.Experiments {
		switch {
		case e.Name == "drifty" && (e.Failed != failure || e.Verdict != ClassRegression):
			t.Errorf("drifty: failed %q verdict %s, want %q and regression", e.Failed, e.Verdict, failure)
		case e.Name == "drifty" && len(e.MetricDiffs) > 0:
			// The candidate's counters are the baseline's: the stamp
			// alone makes it a regression.
			t.Errorf("drifty: copied counters differ: %+v", e.MetricDiffs)
		case e.Name == "clean" && (e.Failed != "" || e.Verdict != ClassOK):
			t.Errorf("clean: failed %q verdict %s, want none and ok", e.Failed, e.Verdict)
		}
	}
	if out := rep.Render(); !strings.Contains(out, "drifty — regression") || !strings.Contains(out, "failed:    "+failure) {
		t.Errorf("report does not name the failed experiment and its failure:\n%s", out)
	}
}

func TestGateReportByteIdentical(t *testing.T) {
	baseDir, candDir := t.TempDir(), t.TempDir()
	writeFixture(t, baseDir, fixture(), fixtureSnapshot())
	s := fixture()
	s.Points[0].BER *= 5 // force the statistical tier (and its bootstrap-free Welch path) to engage
	writeFixture(t, candDir, s, fixtureSnapshot())

	render := func() (string, string) {
		rep, err := Gate(baseDir, candDir, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j, rep.Render()
	}
	j1, t1 := render()
	j2, t2 := render()
	if j1 != j2 {
		t.Fatal("JSON reports differ across runs over the same artifacts")
	}
	if t1 != t2 {
		t.Fatal("text reports differ across runs over the same artifacts")
	}
}

func TestGateEmptyBaselineErrors(t *testing.T) {
	if _, err := Gate(t.TempDir(), t.TempDir(), DefaultOptions()); err == nil {
		t.Fatal("expected an error for an empty baseline dir")
	}
}

func TestLoadDirLegacyArtifacts(t *testing.T) {
	// Artifacts that predate the provenance envelope — a bare series or a
	// bare snapshot at top level — and a series envelope missing its
	// provenance are all rejected, each naming its file.
	series, _ := json.Marshal(fixture())
	snap, _ := json.Marshal(fixtureSnapshot())
	for _, c := range []struct{ file, body string }{
		{"BENCH_fig5.json", string(series)},
		{"BENCH_fig5.metrics.json", string(snap)},
		{"BENCH_fig5.json", `{"series":` + string(series) + `}`},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, c.file), []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		arts, err := LoadDir(dir)
		if err == nil || !strings.Contains(err.Error(), c.file) {
			t.Errorf("%s %.40s… loaded as %+v, err %v; want an error naming the file", c.file, c.body, arts, err)
		}
	}
}

// TestGateAcceptsGaugesKey: metrics written before the gauge instrument
// was removed carry a "gauges" key; such a baseline still loads, and gates
// clean against a candidate without the key.
func TestGateAcceptsGaugesKey(t *testing.T) {
	baseDir, candDir := t.TempDir(), t.TempDir()
	writeFixture(t, baseDir, fixture(), fixtureSnapshot())
	writeFixture(t, candDir, fixture(), fixtureSnapshot())
	path := filepath.Join(baseDir, "BENCH_fig5.metrics.json")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(buf), `"metrics": {`, `"metrics": {`+"\n    \"gauges\": {\"runner.inflight\": 3},", 1)
	if old == string(buf) {
		t.Fatal("no metrics object to add a gauges key to")
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Gate(baseDir, candDir, DefaultOptions())
	if err != nil || rep.Verdict != ClassOK {
		t.Fatalf("a baseline with a gauges key gated %v, %v; want ok", rep, err)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, fixture(), fixtureSnapshot())
	arts, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := arts["fig5"]
	if a == nil || a.SeriesProv == nil || a.MetricsProv == nil {
		t.Fatalf("round trip lost provenance: %+v", a)
	}
	if a.SeriesProv.GitSHA != "abc123def456" || a.MetricsProv.Trials != 8 {
		t.Fatalf("provenance fields corrupted: %+v %+v", a.SeriesProv, a.MetricsProv)
	}
	var got fixtureSeries
	if err := json.Unmarshal(a.Series, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 2 || got.Runs != 4 {
		t.Fatalf("series corrupted: %+v", got)
	}
}
