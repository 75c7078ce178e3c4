package regress

import (
	"witag/internal/obs"
	"witag/internal/perf"
)

// PROF artifacts: the phase-attribution profile witag-bench writes beside
// each experiment's BENCH pair. They are pure wall-clock data, so the gate
// treats them like the volatile-histogram budget tier — per-phase
// quantile-ratio checks that only gate when a budget is set — plus a
// structural check that the fixed phase schema survived (a phase that
// stopped firing means instrumentation was lost, which gates even with
// the budget off).

// WriteProf writes PROF_<name>.json under dir.
func WriteProf(dir, name string, prov Provenance, rep *perf.Report) error {
	return writeArtifact(dir, "PROF_"+name+".json", envelope{Provenance: &prov, Profile: rep})
}

// CompareProf compares two phase-attribution profiles. Quantile-ratio
// checks mirror ComparePerf: per phase, p50 and p99 span durations as
// candidate/baseline ratios, gated only when budget > 0 (wall clocks from
// different machines are not comparable). Structural problems — a phase
// recorded in the baseline but silent in the candidate — are returned as
// instrument diffs and always gate: losing a phase's spans means the
// instrumentation regressed even if nothing got slower.
func CompareProf(base, cand *perf.Report, budget float64) ([]PerfCheck, []obs.InstrumentDiff) {
	var checks []PerfCheck
	var diffs []obs.InstrumentDiff
	for _, bp := range base.Phases {
		cp := cand.Phase(bp.Phase)
		if cp == nil {
			diffs = append(diffs, obs.InstrumentDiff{
				Kind: "prof", Name: "prof.span." + bp.Phase,
				Base: bp.Count, Cand: 0,
				Detail: "phase absent from candidate profile"})
			continue
		}
		if bp.Count > 0 && cp.Count == 0 {
			diffs = append(diffs, obs.InstrumentDiff{
				Kind: "prof", Name: "prof.span." + bp.Phase,
				Base: bp.Count, Cand: 0,
				Detail: "phase recorded no spans in candidate"})
			continue
		}
		if bp.Count == 0 || cp.Count == 0 {
			continue
		}
		for _, c := range []struct {
			q          float64
			base, cand int64
		}{
			{0.50, bp.P50Ns, cp.P50Ns},
			{0.99, bp.P99Ns, cp.P99Ns},
		} {
			if c.base <= 0 {
				continue
			}
			pc := PerfCheck{Name: "prof.span." + bp.Phase, Quantile: c.q,
				Base: c.base, Cand: c.cand,
				Ratio: float64(c.cand) / float64(c.base), Class: ClassOK}
			if budget > 0 && pc.Ratio > budget {
				pc.Class = ClassRegression
			}
			checks = append(checks, pc)
		}
	}
	for _, cp := range cand.Phases {
		if base.Phase(cp.Phase) == nil {
			diffs = append(diffs, obs.InstrumentDiff{
				Kind: "prof", Name: "prof.span." + cp.Phase,
				Base: 0, Cand: cp.Count,
				Detail: "phase absent from baseline profile"})
		}
	}
	return checks, diffs
}
