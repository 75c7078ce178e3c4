package regress

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"witag/internal/obs"
	"witag/internal/perf"
)

// -update regenerates both the fixture artifact dirs and the golden files;
// normal runs only read them, so the goldens pin the exact report bytes.
var update = flag.Bool("update", false, "rewrite golden fixtures and files")

func goldenCompare(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/regress -run Golden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden.\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// goldenFixtures writes the two artifact dirs the golden report compares:
// a clean experiment and one with a BER regression and a counter diff
// beside a PROF profile whose trial wall time quadrupled, which the gate
// does not compare.
func goldenFixtures(t *testing.T, baseDir, candDir string) {
	t.Helper()
	prov := func(exp string, sha string) Provenance {
		return Provenance{
			GitSHA: sha, GoVersion: "go1.22",
			TimestampUTC: "2026-01-01T00:00:00Z",
			Experiment:   exp, Seed: 42, Trials: 8, Runs: 4, Workers: 2,
		}
	}
	cleanSeries := map[string]any{
		"Points": []map[string]float64{{"DistanceM": 1, "BER": 0.01, "BERStd": 0.002}},
		"Runs":   4,
	}
	badBase := map[string]any{
		"Points": []map[string]float64{
			{"DistanceM": 1, "BER": 0.010, "BERStd": 0.002, "ThroughputKbps": 40.1},
			{"DistanceM": 4, "BER": 0.020, "BERStd": 0.003, "ThroughputKbps": 39.2},
		},
		"Runs": 4,
	}
	badCand := map[string]any{
		"Points": []map[string]float64{
			{"DistanceM": 1, "BER": 0.010, "BERStd": 0.002, "ThroughputKbps": 40.1},
			{"DistanceM": 4, "BER": 0.200, "BERStd": 0.003, "ThroughputKbps": 39.2},
		},
		"Runs": 4,
	}
	snap := func(rounds int64) obs.Snapshot {
		return obs.Snapshot{Counters: map[string]int64{"phy.rounds": rounds, "runner.trials_started": 8}}
	}
	slow := fixtureProf()
	slow.WallTotalNs *= 4
	slow.WallP50Us *= 4
	slow.WallP99Us *= 4
	for _, w := range []struct {
		dir    string
		sha    string
		series map[string]any
		snap   obs.Snapshot
		prof   *perf.Report
	}{
		{baseDir, "baseba5e0001", badBase, snap(800), fixtureProf()},
		{candDir, "cand1da7e002", badCand, snap(801), slow},
	} {
		if err := WriteSeries(w.dir, "drifty", prov("drifty", w.sha), w.series); err != nil {
			t.Fatal(err)
		}
		if err := WriteMetrics(w.dir, "drifty", prov("drifty", w.sha), w.snap); err != nil {
			t.Fatal(err)
		}
		if err := WriteProf(w.dir, "drifty", prov("drifty", w.sha), w.prof); err != nil {
			t.Fatal(err)
		}
		if err := WriteSeries(w.dir, "clean", prov("clean", w.sha), cleanSeries); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReportGolden(t *testing.T) {
	baseDir := filepath.Join("testdata", "golden", "baseline")
	candDir := filepath.Join("testdata", "golden", "candidate")
	if *update {
		for _, d := range []string{baseDir, candDir} {
			if err := os.RemoveAll(d); err != nil {
				t.Fatal(err)
			}
		}
		goldenFixtures(t, baseDir, candDir)
	}
	rep, err := Gate(baseDir, candDir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != ClassRegression {
		t.Fatalf("golden fixture gated %s, want regression", rep.Verdict)
	}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, filepath.Join("testdata", "report.golden.json"), j)
	goldenCompare(t, filepath.Join("testdata", "report.golden.txt"), rep.Render())
}

func TestReportGoldenEmpty(t *testing.T) {
	// A report with no experiments cannot come out of Gate (it refuses an
	// empty baseline), but the renderer must still hold shape for it.
	rep := &Report{BaselineDir: "bench", CandidateDir: "out", Options: DefaultOptions(), Verdict: ClassOK}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, filepath.Join("testdata", "report_empty.golden.json"), j)
	goldenCompare(t, filepath.Join("testdata", "report_empty.golden.txt"), rep.Render())
}
