package regress

import (
	"encoding/json"
	"fmt"
	"strings"

	"witag/internal/obs"
)

// ExperimentReport is the sentinel's verdict on one experiment.
type ExperimentReport struct {
	Name string `json:"name"`

	BaselineProv  *Provenance `json:"baselineProvenance,omitempty"`
	CandidateProv *Provenance `json:"candidateProvenance,omitempty"`

	// Missing notes a side that lacks the artifact entirely; a vanished
	// experiment is itself a regression.
	Missing string `json:"missing,omitempty"`
	// Failed is the error the candidate's artifacts are stamped with: the
	// experiment failed, which is itself a regression.
	Failed string `json:"failed,omitempty"`

	Points      []PointVerdict       `json:"points,omitempty"`
	MetricDiffs []obs.InstrumentDiff `json:"metricDiffs,omitempty"`

	Verdict Class `json:"verdict"`
}

// Counts tallies the experiment's point classes.
func (e *ExperimentReport) Counts() (ok, drift, regr, impr int) {
	for _, p := range e.Points {
		switch p.Class {
		case ClassOK:
			ok++
		case ClassDrift:
			drift++
		case ClassRegression:
			regr++
		case ClassImprovement:
			impr++
		}
	}
	return
}

// Report is the whole gate run: every experiment's tiers folded into one
// overall verdict. It contains nothing non-deterministic — rendering the
// same artifact pair twice yields byte-identical JSON.
type Report struct {
	BaselineDir  string             `json:"baselineDir"`
	CandidateDir string             `json:"candidateDir"`
	Options      Options            `json:"options"`
	Experiments  []ExperimentReport `json:"experiments"`
	Verdict      Class              `json:"verdict"`
}

// Gate loads both artifact directories and compares every experiment
// through the three tiers. The error return covers unreadable inputs
// only; science verdicts live in the report.
func Gate(baselineDir, candidateDir string, opts Options) (*Report, error) {
	base, err := LoadDir(baselineDir)
	if err != nil {
		return nil, fmt.Errorf("regress: baseline: %w", err)
	}
	cand, err := LoadDir(candidateDir)
	if err != nil {
		return nil, fmt.Errorf("regress: candidate: %w", err)
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("regress: no BENCH_*.json artifacts under %s", baselineDir)
	}
	rep := &Report{BaselineDir: baselineDir, CandidateDir: candidateDir, Options: opts, Verdict: ClassOK}
	for _, name := range names(base, cand) {
		er, err := gateExperiment(name, base[name], cand[name], opts)
		if err != nil {
			return nil, err
		}
		rep.Experiments = append(rep.Experiments, *er)
		rep.Verdict = Worse(rep.Verdict, er.Verdict)
	}
	return rep, nil
}

func gateExperiment(name string, b, c *Artifact, opts Options) (*ExperimentReport, error) {
	er := &ExperimentReport{Name: name, Verdict: ClassOK, BaselineProv: firstProv(b), CandidateProv: firstProv(c)}
	if er.CandidateProv != nil {
		er.Failed = er.CandidateProv.Error
	}
	if b == nil || c == nil {
		er.Missing = "candidate"
		if b == nil {
			er.Missing = "baseline"
		}
		er.Verdict = ClassRegression
		return er, nil
	}

	// Tier 2 — statistics over the science series.
	switch {
	case b.Series == nil && c.Series == nil:
		// metrics-only artifact pair; nothing to compare here
	case b.Series == nil || c.Series == nil:
		side := "candidate"
		if b.Series == nil {
			side = "baseline"
		}
		er.Points = append(er.Points, PointVerdict{Path: "(series)", Class: ClassRegression,
			Detail: "series artifact missing in " + side})
	default:
		n := provTrialCount(er.BaselineProv)
		pts, err := CompareSeries(b.Series, c.Series, n, opts)
		if err != nil {
			return nil, fmt.Errorf("regress: %s: %w", name, err)
		}
		er.Points = pts
	}

	// Tier 1 — exact equality of deterministic metrics.
	switch {
	case b.Metrics == nil && c.Metrics == nil:
	case b.Metrics == nil || c.Metrics == nil:
		side := "candidate"
		if b.Metrics == nil {
			side = "baseline"
		}
		er.MetricDiffs = append(er.MetricDiffs, obs.InstrumentDiff{
			Kind: "snapshot", Name: "(all)", Detail: "metrics artifact missing in " + side})
	default:
		er.MetricDiffs = obs.DiffDeterministic(*b.Metrics, *c.Metrics)
	}

	// Tier 3 — the PROF profiles' structure. A baseline without a PROF
	// artifact predates the profiling layer: skip silently so old
	// baselines stay comparable. A candidate missing one that the
	// baseline has means the profiling pipeline broke, which gates.
	switch {
	case b.Prof == nil:
	case c.Prof == nil:
		er.MetricDiffs = append(er.MetricDiffs, obs.InstrumentDiff{
			Kind: "prof", Name: "(profile)", Detail: "PROF artifact missing in candidate"})
	default:
		er.MetricDiffs = append(er.MetricDiffs, CompareProf(b.Prof, c.Prof)...)
	}

	for _, p := range er.Points {
		er.Verdict = Worse(er.Verdict, p.Class)
	}
	if len(er.MetricDiffs) > 0 || er.Failed != "" {
		er.Verdict = ClassRegression
	}
	return er, nil
}

// provTrialCount extracts the per-point trial count the statistical tier
// falls back to when the series carries none of its own.
func provTrialCount(p *Provenance) int {
	if p == nil {
		return 0
	}
	if p.Runs > 0 {
		return p.Runs
	}
	if p.Transfers > 0 {
		return p.Transfers
	}
	return 0
}

// firstProv prefers the series artifact's stamp, falling back to the
// metrics file's; nil for an absent artifact.
func firstProv(a *Artifact) *Provenance {
	if a == nil {
		return nil
	}
	if a.SeriesProv != nil {
		return a.SeriesProv
	}
	return a.MetricsProv
}

// JSON renders the report as indented JSON (byte-identical across runs
// over the same artifact pair: every map is sorted, nothing reads the
// clock).
func (r *Report) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// Render prints the report as aligned text: a per-experiment summary
// table, then detail blocks for every experiment that is not clean.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "regression gate: %s (baseline) vs %s (candidate)\n", r.BaselineDir, r.CandidateDir)
	fmt.Fprintf(&b, "tolerance ±%g%% · alpha %g\n\n", r.Options.Tolerance*100, r.Options.Alpha)

	fmt.Fprintf(&b, "%-12s %-26s %-10s %s\n", "experiment", "points ok/drift/regr/impr", "metrics", "verdict")
	for i := range r.Experiments {
		e := &r.Experiments[i]
		ok, drift, regr, impr := e.Counts()
		metrics := "clean"
		if len(e.MetricDiffs) > 0 {
			metrics = fmt.Sprintf("%d diffs", len(e.MetricDiffs))
		}
		verdict := string(e.Verdict)
		if e.Missing != "" {
			verdict = fmt.Sprintf("%s (missing in %s)", verdict, e.Missing)
		}
		fmt.Fprintf(&b, "%-12s %-26s %-10s %s\n",
			e.Name, fmt.Sprintf("%d/%d/%d/%d", ok, drift, regr, impr), metrics, verdict)
	}

	for i := range r.Experiments {
		e := &r.Experiments[i]
		if e.Verdict == ClassOK {
			continue
		}
		fmt.Fprintf(&b, "\n%s — %s\n", e.Name, e.Verdict)
		fmt.Fprintf(&b, "  baseline:  %s\n", e.BaselineProv.String())
		fmt.Fprintf(&b, "  candidate: %s\n", e.CandidateProv.String())
		if e.Failed != "" {
			fmt.Fprintf(&b, "  failed:    %s\n", e.Failed)
		}
		for _, p := range e.Points {
			if p.Class == ClassOK {
				continue
			}
			pv := ""
			if p.P != nil {
				pv = fmt.Sprintf("  p=%.4g", *p.P)
			}
			fmt.Fprintf(&b, "  %-11s %-28s %.6g → %.6g  rel %.1f%%%s  %s\n",
				p.Class, p.Path, p.Baseline, p.Candidate, p.RelErr*100, pv, p.Detail)
		}
		for _, d := range e.MetricDiffs {
			fmt.Fprintf(&b, "  metric      %-9s %-28s %d → %d  %s\n", d.Kind, d.Name, d.Base, d.Cand, d.Detail)
		}
	}

	fmt.Fprintf(&b, "\noverall: %s\n", strings.ToUpper(string(r.Verdict)))
	return b.String()
}
