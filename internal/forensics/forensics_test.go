package forensics

import (
	"encoding/json"
	"strings"
	"testing"

	"witag/internal/obs"
)

// round builds one round event for trial/labels with the given outcome.
func round(trial int, labels string, detected, baLost bool, bits, errs int, airtime, snr int64) obs.Event {
	return obs.Event{
		Kind: "round", Trial: trial, Labels: labels,
		Detected: detected, BALost: baLost,
		Bits: bits, BitErrors: errs, AirtimeUs: airtime, SNRmDb: snr,
	}
}

func analyzeEvents(events ...obs.Event) *Analysis {
	return Analyze(&obs.Trace{Events: events, Total: uint64(len(events))})
}

func TestAnalyzeAggregatesPerTrial(t *testing.T) {
	a := analyzeEvents(
		round(0, "fig5/d=1/run=0", true, false, 28, 1, 1000, 20_000),
		round(0, "fig5/d=1/run=0", false, false, 0, 0, 900, 15_000),
		round(0, "fig5/d=1/run=0", true, true, 28, 3, 1100, 25_000),
		round(1, "fig5/d=1/run=1", true, false, 28, 0, 1000, 22_000),
		obs.Event{Kind: "future", Trial: 0, Rounds: 12}, // unknown kind; ignored
	)
	if len(a.Trials) != 2 {
		t.Fatalf("trials = %d, want 2", len(a.Trials))
	}
	ts := a.Trials[0]
	if ts.Trial != 0 || ts.Labels != "fig5/d=1/run=0" {
		t.Fatalf("first trial = %d %q", ts.Trial, ts.Labels)
	}
	if ts.Rounds != 3 || ts.Detected != 2 || ts.TriggerMisses != 1 || ts.BALosses != 1 {
		t.Fatalf("round counts = %d/%d/%d/%d", ts.Rounds, ts.Detected, ts.TriggerMisses, ts.BALosses)
	}
	if ts.Bits != 56 || ts.BitErrors != 4 {
		t.Fatalf("bits = %d errors = %d", ts.Bits, ts.BitErrors)
	}
	if want := 4.0 / 56.0; ts.BER != want {
		t.Fatalf("BER = %v, want %v", ts.BER, want)
	}
	if ts.AirtimeUs != 3000 {
		t.Fatalf("airtime = %d", ts.AirtimeUs)
	}
	// All three observations land in the 1024/2048 µs buckets of the
	// 256·2^k grid: 900 and 1000 → bound 1024, 1100 → bound 2048.
	if ts.AirtimeP50Us != 1024 || ts.AirtimeP99Us != 2048 {
		t.Fatalf("airtime p50/p99 = %d/%d, want 1024/2048", ts.AirtimeP50Us, ts.AirtimeP99Us)
	}
	if ts.SNRMinmDb != 15_000 || ts.SNRMaxmDb != 25_000 {
		t.Fatalf("snr min/max = %d/%d", ts.SNRMinmDb, ts.SNRMaxmDb)
	}
	// Rounds 2 (miss) and 3 (BA loss) are consecutive losses.
	if ts.MaxLostRun != 2 {
		t.Fatalf("max lost run = %d, want 2", ts.MaxLostRun)
	}
	if a.Trials[1].Rounds != 1 {
		t.Fatalf("second trial rounds = %d, want 1", a.Trials[1].Rounds)
	}
}

func TestAnalyzeTransferAndSegmentAndFault(t *testing.T) {
	seg := func(outcome string) obs.Event {
		return obs.Event{Kind: "segment", Trial: 7, Labels: "robust/lb=0.9/tr=0/mode=arq", Outcome: outcome}
	}
	a := analyzeEvents(
		seg("ok"), seg("erased"), seg("frame_error"), seg("erased"), seg("ok"),
		obs.Event{Kind: "transfer", Trial: 7, Labels: "robust/lb=0.9/tr=0/mode=arq", Delivered: true, Retries: 3},
		obs.Event{Kind: "fault", Trial: 7, Labels: "robust/lb=0.9/tr=0/mode=arq", Outcome: "ba_loss"},
		obs.Event{Kind: "fault", Trial: 7, Labels: "robust/lb=0.9/tr=0/mode=arq", Outcome: "ba_loss"},
		obs.Event{Kind: "fault", Trial: 7, Labels: "robust/lb=0.9/tr=0/mode=arq", Outcome: "brownout"},
	)
	if len(a.Trials) != 1 {
		t.Fatalf("trials = %d", len(a.Trials))
	}
	ts := a.Trials[0]
	if ts.SegmentsOK != 2 || ts.SegmentsBad != 3 {
		t.Fatalf("segments ok/bad = %d/%d", ts.SegmentsOK, ts.SegmentsBad)
	}
	if ts.MaxSegmentFailRun != 3 {
		t.Fatalf("max segment fail run = %d, want 3", ts.MaxSegmentFailRun)
	}
	if ts.Transfers != 1 || ts.Delivered != 1 || ts.Retries != 3 {
		t.Fatalf("transfer = %d/%d/%d", ts.Transfers, ts.Delivered, ts.Retries)
	}
	if ts.Faults["ba_loss"] != 2 || ts.Faults["brownout"] != 1 {
		t.Fatalf("faults = %v", ts.Faults)
	}
}

func TestAnalyzeSplitsSameTrialIDAcrossLabelPaths(t *testing.T) {
	a := analyzeEvents(
		round(0, "fig5/d=1/run=0", true, false, 28, 0, 1000, 20_000),
		round(0, "power/cfg=0", true, false, 28, 0, 1000, 20_000),
	)
	if len(a.Trials) != 2 {
		t.Fatalf("trials = %d, want 2 (distinct label paths must not merge)", len(a.Trials))
	}
}

func TestAnalyzeCarriesClipping(t *testing.T) {
	a := Analyze(&obs.Trace{
		Events: []obs.Event{round(0, "", true, false, 28, 0, 1000, 0)},
		Total:  10, Dropped: 9,
	})
	if !a.Clipped() || a.Total != 10 || a.Dropped != 9 {
		t.Fatalf("clipping not carried: %+v", a)
	}
	b := Analyze(&obs.Trace{Truncated: true})
	if !b.Clipped() {
		t.Fatal("truncated trace should be clipped")
	}
}

func TestFlagBERZScore(t *testing.T) {
	// Nine quiet trials and one with 30× their error rate.
	var events []obs.Event
	for i := 0; i < 9; i++ {
		events = append(events, round(i, "", true, false, 1000, 10, 1000, 0))
	}
	events = append(events, round(9, "", true, false, 1000, 300, 1000, 0))
	anoms := Flag(analyzeEvents(events...), DefaultThresholds())
	if len(anoms) != 1 {
		t.Fatalf("anomalies = %v, want exactly the outlier", anoms)
	}
	an := anoms[0]
	if an.Rule != "ber_zscore" || an.Trial != 9 {
		t.Fatalf("anomaly = %+v", an)
	}
	if an.Value < DefaultThresholds().BERZ {
		t.Fatalf("z = %v below threshold yet flagged", an.Value)
	}
}

func TestFlagBERZScoreSkipsZeroSpread(t *testing.T) {
	var events []obs.Event
	for i := 0; i < 5; i++ {
		events = append(events, round(i, "", true, false, 1000, 10, 1000, 0))
	}
	if anoms := Flag(analyzeEvents(events...), DefaultThresholds()); len(anoms) != 0 {
		t.Fatalf("identical trials flagged: %v", anoms)
	}
}

func TestFlagStallAndBurst(t *testing.T) {
	var events []obs.Event
	for i := 0; i < 8; i++ {
		events = append(events, obs.Event{Kind: "segment", Trial: 3, Outcome: "erased"})
	}
	for i := 0; i < 5; i++ {
		events = append(events, round(4, "", false, false, 0, 0, 500, 0))
	}
	anoms := Flag(analyzeEvents(events...), DefaultThresholds())
	if len(anoms) != 2 {
		t.Fatalf("anomalies = %v, want stall + burst", anoms)
	}
	if anoms[0].Rule != "arq_stall" || anoms[0].Trial != 3 {
		t.Fatalf("first anomaly = %+v", anoms[0])
	}
	if anoms[1].Rule != "burst_loss" || anoms[1].Trial != 4 {
		t.Fatalf("second anomaly = %+v", anoms[1])
	}
	// One fewer than each threshold must stay quiet.
	quiet := Flag(analyzeEvents(events[1:len(events)-1]...), DefaultThresholds())
	if len(quiet) != 0 {
		t.Fatalf("sub-threshold runs flagged: %v", quiet)
	}
}

func TestReportRendersTextAndJSON(t *testing.T) {
	a := analyzeEvents(
		round(0, "fig5/d=1/run=0", true, false, 28, 1, 1000, 20_000),
		round(1, "fig5/d=1/run=1", false, false, 0, 0, 900, 15_000),
	)
	rep := NewReport(a, DefaultThresholds())
	text := rep.Render()
	for _, want := range []string{"trial", "fig5/d=1/run=0", "no anomalies", "2 events decoded"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "warning") {
		t.Fatalf("unclipped trace warned:\n%s", text)
	}

	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(js), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if len(back.Analysis.Trials) != 2 || back.Applied.BERZ != 3 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

func TestReportWarnsWhenClipped(t *testing.T) {
	a := Analyze(&obs.Trace{
		Events: []obs.Event{round(0, "", true, false, 28, 0, 1000, 0)},
		Total:  100, Dropped: 99,
	})
	text := NewReport(a, DefaultThresholds()).Render()
	if !strings.Contains(text, "warning") || !strings.Contains(text, "99 dropped") {
		t.Fatalf("clipped trace did not warn:\n%s", text)
	}
}
