package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	tight := func(xs ...float64) summary { return summarize(xs) }
	for _, tc := range []struct {
		name   string
		a, b   summary
		better string
		want   verdict
	}{
		{"unchanged", tight(10, 10.1, 9.9), tight(10, 10.05, 9.95), "lower", verdictOK},
		{"slower within bound", tight(10, 10.1, 9.9), tight(10.8, 10.9, 10.7), "lower", verdictOK},
		{"slower beyond bound", tight(10, 10.1, 9.9), tight(11.5, 11.6, 11.4), "lower", verdictWorse},
		{"faster", tight(10, 10.1, 9.9), tight(8, 8.1, 7.9), "lower", verdictOK},
		{"throughput drop", tight(100, 101, 99), tight(85, 86, 84), "higher", verdictWorse},
		{"throughput gain", tight(100, 101, 99), tight(130, 131, 129), "higher", verdictOK},
		{"noisy overlap", tight(8, 10, 12), tight(9, 11, 13), "lower", verdictUnresolved},
		{"noisy but every B run better", tight(10, 12, 14), tight(5, 6, 7), "lower", verdictOK},
		{"noisy and worse", tight(8, 10, 12), tight(12, 14, 16), "lower", verdictUnresolved},
	} {
		if got, _ := classify(tc.a, tc.b, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRows(t *testing.T) {
	s := spec{EndToEnd: []boundedMetric{{"wall_s", "s", "lower", 0.1}}}
	res := func(wall ...float64) *results {
		return &results{Workloads: map[string]*workloadResult{
			"los-fig5": {Metrics: map[string]metricResult{"wall_s": {Unit: "s", Better: "lower", summary: summarize(wall)}}},
		}}
	}
	var out bytes.Buffer
	if compare(&out, s, res(10, 10.1, 9.9), res(10.2, 10.3, 10.1)) {
		t.Errorf("a 2%% change reported worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "los-fig5") || !strings.Contains(out.String(), "ok +2.0%") {
		t.Errorf("row missing:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, s, res(10, 10.1, 9.9), res(12, 12.1, 11.9)) {
		t.Errorf("a 20%% slowdown not reported worse:\n%s", out.String())
	}
}
