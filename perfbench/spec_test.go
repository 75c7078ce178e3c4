package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is what tooling reads to learn the workloads, metric
// names, units and bounds; it must list exactly what this program runs
// and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []boundedMetric `json:"end_to_end"`
		PerLayer []metricDef     `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}

	if len(doc.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics listed, program prints %d", len(doc.EndToEnd), len(e2eMetrics))
	}
	setupBound := 0.0
	for i, m := range e2eMetrics {
		got := doc.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end %d: listed %+v, program %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
		if got.Name == "setup_s" {
			setupBound = got.Bound
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s: bound %v exceeds setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}

	layers := layerMetricDefs()
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics listed, program prints %d", len(doc.PerLayer), len(layers))
	}
	for i, m := range layers {
		if doc.PerLayer[i] != m {
			t.Errorf("per-layer %d: listed %+v, program %+v", i, doc.PerLayer[i], m)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q malformed or repeated", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q malformed", n, u)
		}
	}
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, w := range doc.Workloads {
		check(w.Name, "count")
	}
}

func TestWitagSeedStaysInVettedSet(t *testing.T) {
	vetted := map[int64]bool{}
	for _, s := range vettedSeeds {
		vetted[s] = true
		if got := witagSeed(s); got != s {
			t.Errorf("vetted seed %d maps to %d", s, got)
		}
	}
	for _, s := range []int64{-7, 1 << 40, 123456789} {
		got := witagSeed(s)
		if !vetted[got] || got != witagSeed(s) {
			t.Errorf("seed %d maps to %d, not a stable vetted seed", s, got)
		}
	}
}
