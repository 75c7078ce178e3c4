package regress

import (
	"testing"

	"witag/internal/obs"
	"witag/internal/perf"
)

// fixtureProf builds a full-schema phase-attribution report with one hot
// phase, the shape witag-bench writes.
func fixtureProf() *perf.Report {
	rep := &perf.Report{Trials: 8, WallTotalNs: 8_000_000, WallP50Us: 1000, WallP99Us: 1200, Coverage: 0.95}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		name := p.String()
		ps := perf.PhaseStat{Phase: name}
		if name == "viterbi" {
			ps = perf.PhaseStat{Phase: name, Count: 8, TotalNs: 4_000_000,
				P50Ns: 500_000, P99Ns: 600_000, WallShare: 0.5, NsPerTrial: 500_000}
		}
		rep.Phases = append(rep.Phases, ps)
	}
	return rep
}

func TestProfWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteProf(dir, "fig5", fixtureProv(), fixtureProf()); err != nil {
		t.Fatal(err)
	}
	arts, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := arts["fig5"]
	if a == nil || a.Prof == nil || a.ProfProv == nil {
		t.Fatalf("PROF artifact did not load: %+v", a)
	}
	if a.ProfProv.GitSHA != "abc123def456" {
		t.Fatalf("provenance corrupted: %+v", a.ProfProv)
	}
	if len(a.Prof.Phases) != int(obs.NumPhases) || a.Prof.Phase("viterbi").Count != 8 {
		t.Fatalf("profile corrupted: %+v", a.Prof)
	}
}

func TestCompareProfIdentical(t *testing.T) {
	checks, diffs := CompareProf(fixtureProf(), fixtureProf(), 1.3)
	if len(diffs) != 0 {
		t.Fatalf("identical profiles produced diffs: %+v", diffs)
	}
	if len(checks) != 4 { // p50 + p99 for the trial wall and the one firing phase
		t.Fatalf("got %d checks, want 4: %+v", len(checks), checks)
	}
	for _, c := range checks {
		if c.Class != ClassOK || c.Ratio != 1 {
			t.Fatalf("identical profiles breached the budget: %+v", c)
		}
	}
}

func TestCompareProfBudgetBreach(t *testing.T) {
	cand := fixtureProf()
	cand.Phase("viterbi").P50Ns *= 2 // 2x over a 1.3x budget

	checks, diffs := CompareProf(fixtureProf(), cand, 1.3)
	if len(diffs) != 0 {
		t.Fatalf("unexpected structural diffs: %+v", diffs)
	}
	breached := false
	for _, c := range checks {
		if c.Name == "prof.span.viterbi" && c.Quantile == 0.50 && c.Class == ClassRegression {
			breached = true
		}
	}
	if !breached {
		t.Fatalf("2x p50 not flagged under a 1.3x budget: %+v", checks)
	}

	// Budget off: informational only, nothing gates.
	checks, _ = CompareProf(fixtureProf(), cand, 0)
	for _, c := range checks {
		if c.Class != ClassOK {
			t.Fatalf("budget off still gated: %+v", c)
		}
	}
}

// TestCompareProfTrialWallBudget: the trial wall time is the PROF
// figure the budget gates beside the phases. A 4x p50 breaches a 1.3x
// budget under its own name; with the budget off it is only reported.
func TestCompareProfTrialWallBudget(t *testing.T) {
	cand := fixtureProf()
	cand.WallP50Us *= 4

	checks, diffs := CompareProf(fixtureProf(), cand, 1.3)
	if len(diffs) != 0 {
		t.Fatalf("unexpected structural diffs: %+v", diffs)
	}
	var breaches []PerfCheck
	for _, c := range checks {
		if c.Class != ClassOK {
			breaches = append(breaches, c)
		}
	}
	if len(breaches) != 1 || breaches[0].Name != "prof.trial_wall_us" || breaches[0].Quantile != 0.50 ||
		breaches[0].Base != 1000 || breaches[0].Cand != 4000 || breaches[0].Ratio != 4 {
		t.Fatalf("4x trial-wall p50 under a 1.3x budget: breaches %+v, want the p50 alone", breaches)
	}

	checks, _ = CompareProf(fixtureProf(), cand, 0)
	reported := false
	for _, c := range checks {
		if c.Class != ClassOK {
			t.Fatalf("budget off still gated: %+v", c)
		}
		reported = reported || c.Name == "prof.trial_wall_us" && c.Quantile == 0.50 && c.Ratio == 4
	}
	if !reported {
		t.Fatalf("budget off dropped the trial-wall p50 ratio: %+v", checks)
	}
}

func TestCompareProfSilentPhaseGatesWithoutBudget(t *testing.T) {
	cand := fixtureProf()
	*cand.Phase("viterbi") = perf.PhaseStat{Phase: "viterbi"} // instrumentation lost

	_, diffs := CompareProf(fixtureProf(), cand, 0)
	if len(diffs) != 1 || diffs[0].Name != "prof.span.viterbi" {
		t.Fatalf("silent phase not flagged: %+v", diffs)
	}
}

func TestGateProfTier(t *testing.T) {
	writeAll := func(t *testing.T, dir string, withProf bool) {
		t.Helper()
		writeFixture(t, dir, fixture(), fixtureSnapshot())
		if withProf {
			if err := WriteProf(dir, "fig5", fixtureProv(), fixtureProf()); err != nil {
				t.Fatal(err)
			}
		}
	}
	gate := func(t *testing.T, baseProf, candProf bool) *Report {
		t.Helper()
		baseDir, candDir := t.TempDir(), t.TempDir()
		writeAll(t, baseDir, baseProf)
		writeAll(t, candDir, candProf)
		rep, err := Gate(baseDir, candDir, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Identical pair with PROF artifacts on both sides: clean.
	if rep := gate(t, true, true); rep.Verdict != ClassOK {
		j, _ := rep.JSON()
		t.Fatalf("identical PROF pair gated %s\n%s", rep.Verdict, j)
	}
	// Legacy baseline without a PROF artifact: candidate's is ignored.
	if rep := gate(t, false, true); rep.Verdict != ClassOK {
		j, _ := rep.JSON()
		t.Fatalf("legacy baseline without PROF gated %s\n%s", rep.Verdict, j)
	}
	// Baseline has a PROF but the candidate lost it: the profiling
	// pipeline broke, which gates regardless of budget.
	rep := gate(t, true, false)
	if rep.Verdict != ClassRegression {
		t.Fatalf("candidate missing PROF gated %s, want regression", rep.Verdict)
	}
	found := false
	for _, d := range rep.Experiments[0].MetricDiffs {
		if d.Kind == "prof" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no prof diff recorded: %+v", rep.Experiments[0].MetricDiffs)
	}
}
