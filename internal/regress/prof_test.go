package regress

import (
	"reflect"
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
	if diffs := CompareProf(fixtureProf(), fixtureProf()); len(diffs) != 0 {
		t.Fatalf("identical profiles produced diffs: %+v", diffs)
	}
}

// withoutPhase returns rep with the named phase's entry removed.
func withoutPhase(rep *perf.Report, name string) *perf.Report {
	var kept []perf.PhaseStat
	for _, ps := range rep.Phases {
		if ps.Phase != name {
			kept = append(kept, ps)
		}
	}
	rep.Phases = kept
	return rep
}

// TestCompareProfStructuralDiffs: each way the phase schema can break is
// one instrument diff naming the phase, whatever the wall clocks read.
func TestCompareProfStructuralDiffs(t *testing.T) {
	silent := fixtureProf()
	*silent.Phase("viterbi") = perf.PhaseStat{Phase: "viterbi"} // instrumentation lost
	slower := fixtureProf()
	slower.WallP50Us *= 4
	slower.Phase("viterbi").P99Ns *= 4
	cases := []struct {
		name       string
		base, cand *perf.Report
		want       []obs.InstrumentDiff
	}{
		{"silent phase", fixtureProf(), silent, []obs.InstrumentDiff{{Kind: "prof", Name: "prof.span.viterbi",
			Base: 8, Cand: 0, Detail: "phase recorded no spans in candidate"}}},
		{"phase absent from candidate", fixtureProf(), withoutPhase(fixtureProf(), "viterbi"), []obs.InstrumentDiff{{Kind: "prof",
			Name: "prof.span.viterbi", Base: 8, Cand: 0, Detail: "phase absent from candidate profile"}}},
		{"phase absent from baseline", withoutPhase(fixtureProf(), "viterbi"), fixtureProf(), []obs.InstrumentDiff{{Kind: "prof",
			Name: "prof.span.viterbi", Base: 0, Cand: 8, Detail: "phase absent from baseline profile"}}},
		{"idle phase absent from candidate", fixtureProf(), withoutPhase(fixtureProf(), "crc"), []obs.InstrumentDiff{{Kind: "prof",
			Name: "prof.span.crc", Base: 0, Cand: 0, Detail: "phase absent from candidate profile"}}},
		{"slower wall clocks", fixtureProf(), slower, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := CompareProf(c.base, c.cand); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("CompareProf = %+v, want %+v", got, c.want)
			}
		})
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
	// pipeline broke, which gates.
	rep := gate(t, true, false)
	if rep.Verdict != ClassRegression {
		t.Fatalf("candidate missing PROF gated %s, want regression", rep.Verdict)
	}
	want := []obs.InstrumentDiff{{Kind: "prof", Name: "(profile)", Detail: "PROF artifact missing in candidate"}}
	if got := rep.Experiments[0].MetricDiffs; !reflect.DeepEqual(got, want) {
		t.Fatalf("candidate missing PROF recorded %+v, want %+v", got, want)
	}
}
