package main

import (
	"strings"
	"testing"
)

func TestScienceDigest(t *testing.T) {
	series := `{"provenance":{"gitSHA":"aaaa","timestampUTC":"2026-01-01T00:00:00Z","seed":42},"series":{"BER":0.0125,"Runs":[1,2]}}`
	metrics := `{"provenance":{"gitSHA":"aaaa"},"metrics":{"counters":{"core.rounds":100,"runner.alloc_bytes":5},
		"histograms":{"core.round_airtime_us":{"bounds":[1],"counts":[2,0],"sum":2,"count":2},"span.encode_ns":{"bounds":[1],"counts":[9,9],"sum":9,"count":18}},
		"volatile":{"runner.alloc_bytes":true,"span.encode_ns":true}}}`
	base := digest(t, series, metrics)

	same := map[string][2]string{
		"timestamp": {strings.Replace(series, "2026-01-01T00:00:00Z", "2027-06-30T12:00:00Z", 1), metrics},
		"git SHA":   {strings.Replace(series, `"aaaa"`, `"bbbb"`, 1), strings.Replace(metrics, `"aaaa"`, `"bbbb"`, 1)},
		"spacing":   {strings.Replace(series, `"BER":0.0125`, `"BER" : 0.0125`, 1), metrics},
		"volatile":  {series, strings.Replace(metrics, `"runner.alloc_bytes":5`, `"runner.alloc_bytes":6`, 1)},
		"key order": {strings.Replace(series, `{"BER":0.0125,"Runs":[1,2]}`, `{"Runs":[1,2],"BER":0.0125}`, 1), metrics},
	}
	for name, in := range same {
		if got := digest(t, in[0], in[1]); got != base {
			t.Errorf("%s change moved the digest", name)
		}
	}
	moved := map[string][2]string{
		"one float":     {strings.Replace(series, "0.0125", "0.0126", 1), metrics},
		"last digit":    {strings.Replace(series, "0.0125", "0.01250000000000001", 1), metrics},
		"counter":       {series, strings.Replace(metrics, `"core.rounds":100`, `"core.rounds":101`, 1)},
		"deterministic": {series, strings.Replace(metrics, `"counts":[2,0]`, `"counts":[1,1]`, 1)},
	}
	for name, in := range moved {
		if got := digest(t, in[0], in[1]); got == base {
			t.Errorf("%s change did not move the digest", name)
		}
	}
	if _, err := scienceDigest([]byte(`{"provenance":{}}`), []byte(metrics)); err == nil {
		t.Error("an artifact without a series must not digest")
	}
}

func digest(t *testing.T, series, metrics string) string {
	t.Helper()
	d, err := scienceDigest([]byte(series), []byte(metrics))
	if err != nil {
		t.Fatal(err)
	}
	return d
}
