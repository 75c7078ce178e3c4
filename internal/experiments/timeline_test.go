package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"witag/internal/obs"
)

// Timeline capture rides the same determinism contract as logging
// (logging_test.go): attaching a timeline to a campaign is a pure sink —
// it changes no science byte even though it reshapes the runner's
// execution into window-sized chunks — and the logical timeline export
// itself is byte-identical across worker counts. `make determinism` runs
// both tests.

// timedRobustness runs the shared small sweep under a campaign scope
// with a timeline attached, returning the result and the TL JSONL bytes.
func timedRobustness(t *testing.T, workers int) (*RobustnessResult, string) {
	t.Helper()
	camp := obs.NewCampaign("test-tl", obs.CampaignOptions{})
	tl := obs.NewTimeline(camp.Registry, obs.TimelineConfig{WindowTrials: 8})
	camp.SetTimeline(tl)

	cfg := obsRobustnessConfig(workers)
	cfg.Campaign = camp
	res, err := RobustnessCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl.Flush()
	var buf bytes.Buffer
	if err := tl.WriteJSONLFailed(&buf, ""); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

func TestTimelineDoesNotPerturbResults(t *testing.T) {
	bare, err := RobustnessCtx(context.Background(), obsRobustnessConfig(manyWorkers()))
	if err != nil {
		t.Fatal(err)
	}

	timed, _ := timedRobustness(t, manyWorkers())
	if !reflect.DeepEqual(bare, timed) {
		bb, _ := json.Marshal(bare)
		bt, _ := json.Marshal(timed)
		t.Fatalf("attaching a timeline changed the science:\nbare:  %s\ntimed: %s", bb, bt)
	}
}

func TestTimelineWindowsIdenticalAcrossWorkerCounts(t *testing.T) {
	_, serial := timedRobustness(t, 1)
	_, parallel := timedRobustness(t, manyWorkers())
	if serial != parallel {
		t.Fatalf("worker count changed the timeline export:\n1 worker:\n%s\nparallel:\n%s", serial, parallel)
	}
	// Guard against the vacuous pass: real windows with real deltas.
	log, err := obs.ReadTimelineLog(bytes.NewReader([]byte(parallel)))
	if err != nil {
		t.Fatal(err)
	}
	wins := log.Windows
	if len(wins) < 2 {
		t.Fatalf("sweep produced only %d logical windows", len(wins))
	}
	var rounds int64
	for _, w := range wins {
		rounds += w.Delta.Counters["core.rounds"]
	}
	if rounds == 0 {
		t.Fatal("timeline windows carry no core.rounds activity")
	}
}

// TestCodingTimelineWindowsIdenticalAcrossWorkerCounts is the coding
// sweep's form of TestTimelineWindowsIdenticalAcrossWorkerCounts. A link
// tape's evaluations count in the window of the transfer that first
// reaches each round; windows are pool barriers, so that window is the
// same at any worker count, and so is every window's delta.
func TestCodingTimelineWindowsIdenticalAcrossWorkerCounts(t *testing.T) {
	export := func(workers int) string {
		camp := obs.NewCampaign("test-tl", obs.CampaignOptions{})
		tl := obs.NewTimeline(camp.Registry, obs.TimelineConfig{WindowTrials: 8})
		camp.SetTimeline(tl)
		cfg := obsCodingConfig(workers)
		cfg.Campaign = camp
		if _, err := AdaptiveCodingCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		tl.Flush()
		var buf bytes.Buffer
		if err := tl.WriteJSONLFailed(&buf, ""); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial, parallel := export(1), export(manyWorkers())
	if serial != parallel {
		t.Fatalf("worker count changed the timeline export:\n1 worker:\n%s\nparallel:\n%s", serial, parallel)
	}
	log, err := obs.ReadTimelineLog(bytes.NewReader([]byte(parallel)))
	if err != nil {
		t.Fatal(err)
	}
	wins := log.Windows
	if len(wins) < 10 {
		t.Fatalf("sweep produced only %d logical windows", len(wins))
	}
	// The windows must carry shared links: fewer evaluated link states
	// than rounds.
	var rounds, evals int64
	for _, w := range wins {
		rounds += w.Delta.Counters["core.rounds"]
		evals += w.Delta.Counters["core.decode_model_evals"]
	}
	if rounds == 0 || evals >= 2*rounds {
		t.Errorf("windows carry %d decode-model evaluations over %d rounds: the links were not shared", evals, rounds)
	}
}
