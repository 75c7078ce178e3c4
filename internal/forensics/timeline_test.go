package forensics

import (
	"strings"
	"testing"

	"witag/internal/obs"
)

// alignFixture: three logical windows of 4 trials across two Each
// segments (segment 2 restarts indices at 0).
func alignFixture() []obs.TimelineWindow {
	return []obs.TimelineWindow{
		{Kind: obs.WindowLogical, Seq: 0, DoneStart: 0, DoneEnd: 4,
			Spans: []obs.TrialSpan{{Seg: 1, Lo: 0, Hi: 4}}},
		{Kind: obs.WindowLogical, Seq: 1, DoneStart: 4, DoneEnd: 8,
			Spans: []obs.TrialSpan{{Seg: 1, Lo: 4, Hi: 6}, {Seg: 2, Lo: 0, Hi: 2}}},
		{Kind: obs.WindowLogical, Seq: 2, DoneStart: 8, DoneEnd: 10,
			Spans: []obs.TrialSpan{{Seg: 2, Lo: 2, Hi: 4}}},
	}
}

func TestAlignAnomaliesMapsTrialsOntoWindows(t *testing.T) {
	in := []Anomaly{
		{Rule: "burst_loss", Trial: 5, Detail: "9 consecutive lost rounds"},
		{Rule: "ber_spike", Trial: 1},
		{Rule: "stall", Trial: 99},
	}
	aligned := AlignAnomalies(in, alignFixture())
	if len(aligned) != 3 {
		t.Fatalf("aligned %d anomalies, want 3", len(aligned))
	}

	// Trial 5 exists only in segment 1 → window 1 alone.
	if got := aligned[0].Windows; len(got) != 1 || got[0].Seq != 1 || got[0].DoneStart != 4 || got[0].DoneEnd != 8 {
		t.Errorf("burst_loss trial 5 aligned to %+v, want window #1[4,8)", got)
	}
	// Trial 1 recurs across segments (trace events carry no segment):
	// windows 0 and 1 — over-approximate, never silently wrong.
	if got := aligned[1].Windows; len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Errorf("trial 1 aligned to %+v, want windows #0 and #1", got)
	}
	// Trial 99 is off the timeline: empty, not dropped.
	if got := aligned[2].Windows; len(got) != 0 {
		t.Errorf("off-timeline trial aligned to %+v, want none", got)
	}
	if aligned[2].Rule != "stall" {
		t.Errorf("anomaly fields lost in alignment: %+v", aligned[2].Anomaly)
	}
}

func TestAlignAnomaliesEmptyInputs(t *testing.T) {
	if got := AlignAnomalies(nil, alignFixture()); len(got) != 0 {
		t.Errorf("nil anomalies aligned to %+v", got)
	}
	got := AlignAnomalies([]Anomaly{{Rule: "r", Trial: 0}}, nil)
	if len(got) != 1 || len(got[0].Windows) != 0 {
		t.Errorf("no-timeline alignment = %+v", got)
	}
}

func TestRenderAlignment(t *testing.T) {
	aligned := AlignAnomalies([]Anomaly{
		{Rule: "burst_loss", Trial: 5, Labels: "dist=12"},
		{Rule: "stall", Trial: 99},
	}, alignFixture())
	out := RenderAlignment(aligned)
	if !strings.Contains(out, "burst_loss") || !strings.Contains(out, "#1[4,8)") {
		t.Errorf("rendered table missing the aligned window:\n%s", out)
	}
	if !strings.Contains(out, "(not on timeline)") {
		t.Errorf("rendered table missing the off-timeline marker:\n%s", out)
	}
	if got := RenderAlignment(nil); !strings.Contains(got, "no anomalies") {
		t.Errorf("empty render = %q", got)
	}
}
