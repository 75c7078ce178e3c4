package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"witag/internal/obs"
)

// The phase-span timers ride the same contract as the rest of the
// instrumentation (DESIGN.md §8/§14): they read the wall clock but never
// draw RNG values or branch into the simulation, so enabling them cannot
// move a single science byte, and the volatile span histograms must stay
// out of the deterministic snapshot the worker-count suite compares.
// `make determinism` runs this test alongside the other perturbation
// receipts.

// robustnessWithSpans runs the shared sweep with a spans-on or spans-off
// observer and returns the result plus the accumulated snapshot.
func robustnessWithSpans(t *testing.T, workers int, spans bool) (*RobustnessResult, obs.Snapshot) {
	t.Helper()
	cfg := obsRobustnessConfig(workers)
	cfg.Campaign = obs.NewCampaign("test", obs.CampaignOptions{})
	if !spans {
		cfg.Campaign.Observer.Spans = nil // instruments registered but never observed
	}
	res, err := RobustnessCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Campaign.Registry.Snapshot()
}

func TestSpanInstrumentationDoesNotPerturbResults(t *testing.T) {
	workers := manyWorkers()

	withSpans, snapOn := robustnessWithSpans(t, workers, true)
	withoutSpans, snapOff := robustnessWithSpans(t, workers, false)

	// Science result: byte-identical with spans on or off.
	if !reflect.DeepEqual(withSpans, withoutSpans) {
		bOn, _ := json.Marshal(withSpans)
		bOff, _ := json.Marshal(withoutSpans)
		t.Fatalf("span timing changed the result:\nspans on:  %s\nspans off: %s", bOn, bOff)
	}
	if withSpans.Render() != withoutSpans.Render() {
		t.Fatal("span timing changed the rendered table")
	}

	// Deterministic metrics: identical too — the spans only touch volatile
	// histograms, which Deterministic() drops.
	if !reflect.DeepEqual(snapOn.Deterministic(), snapOff.Deterministic()) {
		t.Fatal("span timing changed the deterministic metrics view")
	}

	// And identical across worker counts with spans enabled.
	_, snapSerial := robustnessWithSpans(t, 1, true)
	if !reflect.DeepEqual(snapOn.Deterministic(), snapSerial.Deterministic()) {
		t.Fatal("worker count changed the deterministic metrics with spans enabled")
	}

	// Guard against the vacuous pass: the sweep must actually have timed
	// the instrumented phases. PhaseDeinterleave is absent — it only fires
	// on the bit-true phy.Receive path, which this analytic sweep does not
	// take; phy's own TestReceiveRecordsSpans covers it.
	for _, p := range []obs.Phase{
		obs.PhaseEncode, obs.PhaseChannel, obs.PhaseEqualise,
		obs.PhaseViterbi, obs.PhaseCRC,
		obs.PhaseARQRound, obs.PhaseCodingEncode, obs.PhaseCodingDecode,
	} {
		if snapOn.Histograms[obs.SpanName(p)].Count == 0 {
			t.Errorf("%s recorded no spans — phase not exercised", obs.SpanName(p))
		}
	}
	// The span histograms are wall-clock data and must be filtered out of
	// the deterministic view.
	for name := range snapOn.Deterministic().Histograms {
		if strings.HasPrefix(name, "span.") {
			t.Errorf("volatile %s leaked into the deterministic view", name)
		}
	}
}
