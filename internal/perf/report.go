// Package perf aggregates the obs layer's phase-span histograms and
// runner accounting into a phase-attribution report: where does a trial's
// wall time go, phase by phase, and what does a trial allocate?
//
// A report is computed from a metrics *delta* (one campaign's worth of
// instrument movement) and rendered two ways: aligned text for humans and
// byte-stable JSON for the PROF_<name>.json artifacts the regression gate
// compares. Everything here is volatile wall-clock data — a report never
// contains science series, so committing one as a baseline moves nothing
// deterministic.
package perf

import (
	"fmt"
	"sort"
	"strings"

	"witag/internal/obs"
)

// PhaseStat is one phase's share of a campaign.
type PhaseStat struct {
	Phase      string  `json:"phase"`
	Count      int64   `json:"count"`      // spans recorded
	TotalNs    int64   `json:"total_ns"`   // summed span time
	P50Ns      int64   `json:"p50_ns"`     // nearest-rank median span
	P99Ns      int64   `json:"p99_ns"`     // nearest-rank p99 span
	WallShare  float64 `json:"wall_share"` // TotalNs / trial wall total
	NsPerTrial int64   `json:"ns_per_trial"`
}

// Report is the phase-attribution profile of one campaign.
type Report struct {
	Trials      int64 `json:"trials"`
	WallTotalNs int64 `json:"wall_total_ns"` // Σ per-trial wall time
	WallP50Us   int64 `json:"wall_p50_us"`
	WallP99Us   int64 `json:"wall_p99_us"`
	// Phases holds one entry per obs.Phase, in enum order, always all of
	// them — a phase that never fired reports zeros, so the artifact
	// schema is fixed and the gate can diff structure.
	Phases []PhaseStat `json:"phases"`
	// Coverage is Σ phase TotalNs / WallTotalNs: the fraction of measured
	// trial wall time the spans attribute. The spans are non-overlapping
	// by construction, so this is a true share, not a double count.
	Coverage             float64 `json:"coverage"`
	AllocBytesPerTrial   int64   `json:"alloc_bytes_per_trial"`
	AllocObjectsPerTrial int64   `json:"alloc_objects_per_trial"`
	GCCycles             int64   `json:"gc_cycles"`
}

// FromSnapshot builds the report from one campaign's metrics delta (the
// snapshot-delta witag-bench already computes per experiment).
func FromSnapshot(delta obs.Snapshot) *Report {
	rep := &Report{
		Trials: delta.Counters["runner.trials_started"],
		Phases: make([]PhaseStat, 0, obs.NumPhases),
	}
	if wall, ok := delta.Histograms["runner.trial_wall_us"]; ok {
		rep.WallTotalNs = wall.Sum * 1000
		rep.WallP50Us = wall.Quantile(0.50)
		rep.WallP99Us = wall.Quantile(0.99)
	}
	var attributed int64
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		ps := PhaseStat{Phase: p.String()}
		if h, ok := delta.Histograms[obs.SpanName(p)]; ok && h.Count > 0 {
			ps.Count = h.Count
			ps.TotalNs = h.Sum
			ps.P50Ns = h.Quantile(0.50)
			ps.P99Ns = h.Quantile(0.99)
			if rep.WallTotalNs > 0 {
				ps.WallShare = float64(h.Sum) / float64(rep.WallTotalNs)
			}
			if rep.Trials > 0 {
				ps.NsPerTrial = h.Sum / rep.Trials
			}
			attributed += h.Sum
		}
		rep.Phases = append(rep.Phases, ps)
	}
	if rep.WallTotalNs > 0 {
		rep.Coverage = float64(attributed) / float64(rep.WallTotalNs)
	}
	if rep.Trials > 0 {
		rep.AllocBytesPerTrial = delta.Counters["runner.alloc_bytes"] / rep.Trials
		rep.AllocObjectsPerTrial = delta.Counters["runner.alloc_objects"] / rep.Trials
	}
	rep.GCCycles = delta.Counters["runner.gc_cycles"]
	return rep
}

// Publish pushes the report to the campaign's SSE stream as a "phase"
// event tagged with the experiment name — the live form of the
// PROF_<name>.json artifact, so a watcher sees attribution as each
// experiment finishes instead of after the run. Nil-safe on both sides.
func (r *Report) Publish(c *obs.Campaign, experiment string) {
	if r == nil || c == nil {
		return
	}
	c.PublishPhase(struct {
		Experiment string `json:"experiment"`
		*Report
	}{Experiment: experiment, Report: r})
}

// Phase returns the named phase's stats (nil when absent — only possible
// on reports unmarshalled from foreign artifacts).
func (r *Report) Phase(name string) *PhaseStat {
	for i := range r.Phases {
		if r.Phases[i].Phase == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// Render returns the aligned-text attribution table, phases sorted by
// total time descending (ties broken by enum order, which the slice
// already carries).
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "phase attribution: %d trials, wall %s (p50 %dµs, p99 %dµs)\n",
		r.Trials, fmtNs(r.WallTotalNs), r.WallP50Us, r.WallP99Us)
	fmt.Fprintf(&b, "  %-14s %10s %12s %9s %9s %7s %12s\n",
		"phase", "count", "total", "p50", "p99", "share", "ns/trial")
	order := make([]int, len(r.Phases))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return r.Phases[order[a]].TotalNs > r.Phases[order[b]].TotalNs
	})
	for _, i := range order {
		p := r.Phases[i]
		fmt.Fprintf(&b, "  %-14s %10d %12s %9s %9s %6.1f%% %12d\n",
			p.Phase, p.Count, fmtNs(p.TotalNs), fmtNs(p.P50Ns), fmtNs(p.P99Ns),
			100*p.WallShare, p.NsPerTrial)
	}
	fmt.Fprintf(&b, "  coverage %.1f%% of trial wall time; %s + %d objects allocated per trial; %d GC cycles\n",
		100*r.Coverage, fmtBytes(r.AllocBytesPerTrial), r.AllocObjectsPerTrial, r.GCCycles)
	return b.String()
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
