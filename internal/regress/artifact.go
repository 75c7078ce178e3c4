// Package regress is the regression sentinel: it loads two bench artifact
// directories — a candidate run and a committed baseline — and produces a
// deterministic verdict on whether the science moved.
//
// Three tiers of comparison, strictest applicable first (DESIGN.md §12):
//
//   - Equality: deterministic metrics snapshots (the non-Volatile counters
//     and histograms of obs.Snapshot) are a pure function of the seeds, so
//     they must match bit-for-bit per experiment. Any difference — even a
//     single counter off by one — is a regression: some code path executed
//     differently.
//   - Statistics: stochastic science series (BER, throughput, delivery …)
//     are compared point-by-point with a relative tolerance band plus a
//     statistical test — Welch's t when a point carries mean/std/trial
//     count, a deterministic bootstrap when raw per-trial samples are
//     present. Each point classifies as ok, drift, regression or
//     improvement.
//   - Structure: wall-clock figures are never expected to match, and
//     wall clocks from different machines are not comparable, so the
//     PROF profile (trial wall time and per-phase span durations) is
//     checked only for its phase schema: every phase the baseline
//     records must still fire in the candidate. Speed is gated by a
//     same-machine A/B against the merge base (`make perfcmp`).
//
// Everything in this package is deterministic: no wall clock, no
// environment reads, fixed-seed resampling — two runs over the same
// artifact pair render byte-identical reports.
package regress

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"witag/internal/obs"
	"witag/internal/perf"
)

// Provenance stamps a bench artifact with exactly what produced it, so a
// gate report can name what was compared. The timestamp is passed in by
// the CLI — nothing on the deterministic library path reads the clock.
type Provenance struct {
	GitSHA       string `json:"gitSHA,omitempty"`
	GoVersion    string `json:"goVersion,omitempty"`
	TimestampUTC string `json:"timestampUTC,omitempty"` // RFC3339, supplied by the caller
	Experiment   string `json:"experiment,omitempty"`
	Seed         int64  `json:"seed"`
	Trials       int64  `json:"trials,omitempty"` // runner trials the experiment actually started
	Runs         int    `json:"runs,omitempty"`
	Rounds       int    `json:"rounds,omitempty"`
	Transfers    int    `json:"transfers,omitempty"`
	Workers      int    `json:"workers,omitempty"` // resolved worker count (informational)
	FaultProfile string `json:"faultProfile,omitempty"`
	// Coding-sweep selectors ("all" when the full grid ran).
	TransferScheme string `json:"transferScheme,omitempty"`
	TrafficProfile string `json:"trafficProfile,omitempty"`
	// Error is the experiment's failure, a run error or a failed shape
	// check; empty when it passed. The gate refuses a candidate with one.
	Error string `json:"error,omitempty"`
}

// String renders the provenance as one report line.
func (p *Provenance) String() string {
	if p == nil {
		return "(no provenance)"
	}
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+v)
		}
	}
	add("sha", p.GitSHA)
	add("go", p.GoVersion)
	add("at", p.TimestampUTC)
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if p.Trials > 0 {
		parts = append(parts, fmt.Sprintf("trials=%d", p.Trials))
	}
	if p.Workers > 0 {
		parts = append(parts, fmt.Sprintf("workers=%d", p.Workers))
	}
	add("fault", p.FaultProfile)
	return strings.Join(parts, " ")
}

// envelope is the on-disk layout of every artifact: the provenance stamp
// beside one payload — the series of BENCH_<name>.json, the metrics of
// BENCH_<name>.metrics.json or the profile of PROF_<name>.json.
type envelope struct {
	Provenance *Provenance     `json:"provenance,omitempty"`
	Series     json.RawMessage `json:"series,omitempty"`
	Metrics    *obs.Snapshot   `json:"metrics,omitempty"`
	Profile    *perf.Report    `json:"profile,omitempty"`
}

// Artifact is everything one experiment left behind in a bench directory.
type Artifact struct {
	Name string // experiment name, from the file name

	Series     json.RawMessage // nil when BENCH_<name>.json is absent
	SeriesProv *Provenance

	Metrics     *obs.Snapshot // nil when BENCH_<name>.metrics.json is absent
	MetricsProv *Provenance

	Prof     *perf.Report // nil when PROF_<name>.json is absent
	ProfProv *Provenance
}

// WriteSeries writes BENCH_<name>.json under dir as a provenance-stamped
// envelope, creating dir if needed.
func WriteSeries(dir, name string, prov Provenance, series any) error {
	raw, err := json.Marshal(series)
	if err != nil {
		return err
	}
	return writeArtifact(dir, "BENCH_"+name+".json", envelope{Provenance: &prov, Series: raw})
}

// WriteMetrics writes BENCH_<name>.metrics.json under dir.
func WriteMetrics(dir, name string, prov Provenance, snap obs.Snapshot) error {
	return writeArtifact(dir, "BENCH_"+name+".metrics.json", envelope{Provenance: &prov, Metrics: &snap})
}

func writeArtifact(dir, file string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), append(buf, '\n'), 0o644)
}

// LoadDir reads every BENCH_<name>.json / BENCH_<name>.metrics.json /
// PROF_<name>.json group under dir. Each file must be a provenance
// envelope; a document without one fails the load, naming the file.
func LoadDir(dir string) (map[string]*Artifact, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	arts := map[string]*Artifact{}
	for _, e := range entries {
		fn := e.Name()
		name, ok := artifactName(fn)
		if e.IsDir() || !ok {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, fn))
		if err != nil {
			return nil, err
		}
		a := arts[name]
		if a == nil {
			a = &Artifact{Name: name}
			arts[name] = a
		}
		if err := loadArtifact(a, fn, buf); err != nil {
			return nil, err
		}
	}
	return arts, nil
}

// artifactName returns the experiment a BENCH_/PROF_ file name belongs
// to; ok is false when fn is not an artifact file.
func artifactName(fn string) (name string, ok bool) {
	switch {
	case !strings.HasSuffix(fn, ".json"):
		return "", false
	case strings.HasPrefix(fn, "PROF_"):
		return strings.TrimSuffix(strings.TrimPrefix(fn, "PROF_"), ".json"), true
	case strings.HasPrefix(fn, "BENCH_") && strings.HasSuffix(fn, ".metrics.json"):
		return strings.TrimSuffix(strings.TrimPrefix(fn, "BENCH_"), ".metrics.json"), true
	case strings.HasPrefix(fn, "BENCH_"):
		return strings.TrimSuffix(strings.TrimPrefix(fn, "BENCH_"), ".json"), true
	}
	return "", false
}

// loadArtifact parses one artifact file's contents into a; the file name
// says which payload the envelope holds. A document without its
// provenance or its payload is rejected, naming the file.
func loadArtifact(a *Artifact, fn string, buf []byte) error {
	var env envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return fmt.Errorf("regress: %s: %w", fn, err)
	}
	if env.Provenance == nil {
		return fmt.Errorf("regress: %s: no provenance envelope", fn)
	}
	missing := func(key string) error { return fmt.Errorf("regress: %s: no %s in envelope", fn, key) }
	switch {
	case strings.HasPrefix(fn, "PROF_"):
		if env.Profile == nil {
			return missing("profile")
		}
		a.Prof, a.ProfProv = env.Profile, env.Provenance
	case strings.HasSuffix(fn, ".metrics.json"):
		if env.Metrics == nil {
			return missing("metrics")
		}
		a.Metrics, a.MetricsProv = env.Metrics, env.Provenance
	default:
		if env.Series == nil {
			return missing("series")
		}
		a.Series, a.SeriesProv = env.Series, env.Provenance
	}
	return nil
}

// names returns the union of experiment names across artifact maps,
// sorted, so report ordering is deterministic.
func names(ms ...map[string]*Artifact) []string {
	seen := map[string]bool{}
	for _, m := range ms {
		for n := range m {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
