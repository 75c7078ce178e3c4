package regress

import (
	"witag/internal/obs"
	"witag/internal/perf"
)

// PROF artifacts: the phase-attribution profile witag-bench writes beside
// each experiment's BENCH pair, and the one place a campaign's wall-clock
// figures live. The gate's perf tier reads them alone: quantile-ratio
// checks of the trial wall time and of each phase's spans that only gate
// when a budget is set, plus a structural check that the fixed phase
// schema survived (a phase that stopped firing means instrumentation was
// lost, which gates even with the budget off).

// WriteProf writes PROF_<name>.json under dir.
func WriteProf(dir, name string, prov Provenance, rep *perf.Report) error {
	return writeArtifact(dir, "PROF_"+name+".json", envelope{Provenance: &prov, Profile: rep})
}

// CompareProf compares two phase-attribution profiles: the trial wall
// time's p50 and p99 (prof.trial_wall_us) and, per phase, the p50 and p99
// span durations (prof.span.<phase>), as candidate/baseline ratios gated
// only when budget > 0 (wall clocks from different machines are not
// comparable). Structural problems — a phase recorded in the baseline but
// silent in the candidate — are returned as instrument diffs and always
// gate: losing a phase's spans means the instrumentation regressed even
// if nothing got slower.
func CompareProf(base, cand *perf.Report, budget float64) ([]PerfCheck, []obs.InstrumentDiff) {
	checks := ratioChecks(nil, "prof.trial_wall_us", base.WallP50Us, cand.WallP50Us, base.WallP99Us, cand.WallP99Us, budget)
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
		checks = ratioChecks(checks, "prof.span."+bp.Phase, bp.P50Ns, cp.P50Ns, bp.P99Ns, cp.P99Ns, budget)
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

// ratioChecks appends name's p50 and p99 candidate/baseline ratios to
// checks, skipping a quantile the baseline has no figure for. A ratio
// above a positive budget is a regression; budget <= 0 only reports.
func ratioChecks(checks []PerfCheck, name string, base50, cand50, base99, cand99 int64, budget float64) []PerfCheck {
	for _, c := range [...]struct {
		q          float64
		base, cand int64
	}{
		{0.50, base50, cand50},
		{0.99, base99, cand99},
	} {
		if c.base <= 0 {
			continue
		}
		pc := PerfCheck{Name: name, Quantile: c.q, Base: c.base, Cand: c.cand,
			Ratio: float64(c.cand) / float64(c.base), Class: ClassOK}
		if budget > 0 && pc.Ratio > budget {
			pc.Class = ClassRegression
		}
		checks = append(checks, pc)
	}
	return checks
}
