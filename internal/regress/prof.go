package regress

import (
	"witag/internal/obs"
	"witag/internal/perf"
)

// PROF artifacts: the phase-attribution profile witag-bench writes beside
// each experiment's BENCH pair, and the one place a campaign's wall-clock
// figures live. The gate reads their structure only: the fixed phase
// schema must survive, since a phase that stopped firing means
// instrumentation was lost. Wall clocks from different machines are not
// comparable, so speed is judged by a same-machine A/B (`make perfcmp`),
// never against the committed profiles' timings.

// WriteProf writes PROF_<name>.json under dir.
func WriteProf(dir, name string, prov Provenance, rep *perf.Report) error {
	return writeArtifact(dir, "PROF_"+name+".json", envelope{Provenance: &prov, Profile: rep})
}

// CompareProf compares the phase schema of two phase-attribution
// profiles. Each phase recorded in the baseline but silent or absent in
// the candidate, and each phase the baseline lacks, is an instrument
// diff, and every diff gates: losing a phase's spans means the
// instrumentation regressed even if nothing got slower.
func CompareProf(base, cand *perf.Report) []obs.InstrumentDiff {
	var diffs []obs.InstrumentDiff
	for _, bp := range base.Phases {
		cp := cand.Phase(bp.Phase)
		switch {
		case cp == nil:
			diffs = append(diffs, obs.InstrumentDiff{
				Kind: "prof", Name: "prof.span." + bp.Phase,
				Base: bp.Count, Cand: 0,
				Detail: "phase absent from candidate profile"})
		case bp.Count > 0 && cp.Count == 0:
			diffs = append(diffs, obs.InstrumentDiff{
				Kind: "prof", Name: "prof.span." + bp.Phase,
				Base: bp.Count, Cand: 0,
				Detail: "phase recorded no spans in candidate"})
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
	return diffs
}
