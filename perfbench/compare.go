package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

// boundedMetric is an end-to-end metric with the share of the baseline
// median by which it may get worse.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict classifies one metric of one workload between two result sets.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// classify compares candidate b against baseline a for a metric where
// better is "lower" or "higher". change is b's median relative to a's,
// signed so that positive means worse. When either side's spread exceeds
// bound the medians cannot resolve a change of that size, and the metric
// is unresolved, unless every b sample beats every a sample.
func classify(a, b summary, better string, bound float64) (v verdict, change float64) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if a.Median != 0 {
		change = sign * (b.Median - a.Median) / a.Median
	}
	if max(a.spread(), b.spread()) > bound {
		if allBeat(b.Samples, a.Samples, sign) {
			return verdictOK, change
		}
		return verdictUnresolved, change
	}
	if change > bound {
		return verdictWorse, change
	}
	return verdictOK, change
}

// allBeat reports whether every b sample is better than every a sample.
func allBeat(b, a []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints one row per workload present in both result files, each
// cell the verdict for one end-to-end metric with the signed change, and
// reports whether any metric got worse by more than its bound.
func compare(w io.Writer, s spec, a, b *results) (worse bool) {
	var names []string
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s", "workload")
	for _, m := range s.EndToEnd {
		fmt.Fprintf(w, " %-24s", fmt.Sprintf("%s (±%g%%)", m.Name, 100*m.Bound))
	}
	fmt.Fprintln(w)
	for _, name := range names {
		fmt.Fprintf(w, "%-16s", name)
		for _, m := range s.EndToEnd {
			am, aok := a.Workloads[name].Metrics[m.Name]
			bm, bok := b.Workloads[name].Metrics[m.Name]
			if !aok || !bok {
				fmt.Fprintf(w, " %-24s", "missing")
				continue
			}
			v, change := classify(am.summary, bm.summary, m.Better, m.Bound)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, " %-24s", fmt.Sprintf("%s %+.1f%%", v, 100*change))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, strings.TrimSpace(`
change is B's median against A's, positive = worse; "unresolved" means a
side's interquartile spread exceeds the bound and not every B run beat
every A run.`))
	return worse
}
