package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"witag/internal/obs"
	"witag/internal/obs/obstest"
	"witag/internal/sim"
)

// The forensic replay contract (DESIGN.md §11): a trial's outcome is a
// pure function of its labeled seeds, so re-running one trial from the
// label path its trace events carry must reproduce those events — and the
// deterministic metrics — byte for byte, regardless of the worker count
// the original campaign ran with.

// traceCampaign returns a fresh campaign with a trace ring large enough
// for the tests' small sweeps.
func traceCampaign() *obs.Campaign {
	return obs.NewCampaign("replay-test", obs.CampaignOptions{TraceCap: 1 << 14})
}

// campaignTrace runs fn under a fresh campaign and returns the recorded
// events and the metrics snapshot.
func campaignTrace(t *testing.T, fn func(c *obs.Campaign) error) ([]obs.Event, obs.Snapshot) {
	t.Helper()
	c := traceCampaign()
	if err := fn(c); err != nil {
		t.Fatal(err)
	}
	if d := c.Trace.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events; enlarge the test capacity", d)
	}
	return c.Trace.Events(), c.Registry.Snapshot()
}

// trialSlice filters one trial's events: all of them, since every event
// is a pure function of the seeds.
func trialSlice(events []obs.Event, trial int) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Trial == trial {
			out = append(out, e)
		}
	}
	return out
}

// assertEventsByteIdentical JSON-encodes both slices and requires equal
// bytes at every index.
func assertEventsByteIdentical(t *testing.T, label string, want, got []obs.Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d events originally, %d replayed", label, len(want), len(got))
	}
	for i := range want {
		w, _ := json.Marshal(want[i])
		g, _ := json.Marshal(got[i])
		if string(w) != string(g) {
			t.Fatalf("%s: event %d diverged:\noriginal: %s\nreplayed: %s", label, i, w, g)
		}
	}
}

func TestFigure5ReplayDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := Figure5Config{Seed: 42, Runs: 2, Round: 60}
	campaign := func(workers int) ([]obs.Event, obs.Snapshot) {
		c := cfg
		c.Workers = workers
		return campaignTrace(t, func(camp *obs.Campaign) error {
			c.Campaign = camp
			_, err := Figure5Ctx(context.Background(), c)
			return err
		})
	}
	serialEvents, serialSnap := campaign(1)
	parallelEvents, _ := campaign(manyWorkers())

	// Count the campaign's trials from the trace itself.
	trials := 0
	for _, e := range serialEvents {
		if e.Trial >= trials {
			trials = e.Trial + 1
		}
	}
	if trials < 4 {
		t.Fatalf("campaign produced %d trials — too few to exercise replay", trials)
	}

	var replaySnaps []obs.Snapshot
	for k := 0; k < trials; k++ {
		serial := trialSlice(serialEvents, k)
		if len(serial) < cfg.Round {
			t.Fatalf("trial %d has %d events, want >= %d rounds", k, len(serial), cfg.Round)
		}
		// The per-trial slice must not depend on the campaign's worker
		// count (events interleave across trials, never within one).
		assertEventsByteIdentical(t, "worker counts", serial, trialSlice(parallelEvents, k))

		// Replay the trial from its label path alone, into fresh
		// instrumentation, and require the same bytes back.
		rc := traceCampaign()
		if _, err := ReplayTrial(context.Background(), ReplayRequest{
			Labels: serial[0].Labels, Trial: k, Seed: cfg.Seed, Rounds: cfg.Round,
			Campaign: rc,
		}); err != nil {
			t.Fatalf("replay trial %d: %v", k, err)
		}
		assertEventsByteIdentical(t, "replay", serial, trialSlice(rc.Trace.Events(), k))
		replaySnaps = append(replaySnaps, rc.Registry.Snapshot())
	}

	// The per-trial replays, merged, must reproduce the campaign's whole
	// deterministic metrics view — same counters, same histogram buckets.
	merged := obstest.Merge(replaySnaps...).Deterministic()
	if want := serialSnap.Deterministic(); !reflect.DeepEqual(want, merged) {
		bw, _ := json.Marshal(want)
		bm, _ := json.Marshal(merged)
		t.Fatalf("merged replay metrics differ from the campaign's:\ncampaign: %s\nreplays:  %s", bw, bm)
	}
	if serialSnap.Counters["core.rounds"] == 0 {
		t.Fatal("campaign recorded no rounds — vacuous comparison")
	}

	// A witag-sim trial cannot be rebuilt from its labels: the refusal
	// must name the deployment flags witag-sim really has and point to
	// the series that records them.
	_, err := ReplayTrial(context.Background(), ReplayRequest{Labels: "sim/run=0", Seed: 1, Rounds: 1, Campaign: traceCampaign()})
	if err == nil || strings.Contains(err.Error(), "-dist") || !strings.Contains(err.Error(), "-walls") || !strings.Contains(err.Error(), "BENCH_sim.json") {
		t.Fatalf("replaying sim/run=0 returned %v, want a refusal naming the deployment flags and BENCH_sim.json", err)
	}
}

// TestFigure6ReplayDeterministicAcrossWorkerCounts runs Figure 6 the way
// the suite does, both locations under one root seed, and replays every
// trial of both from its label path at that root seed. Location B runs at
// its own seed (figure6Seed), so replay must apply the same rule.
func TestFigure6ReplayDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := SuiteConfig{Seed: 42, Rounds: 20} // 10 rounds per run
	campaign := func(workers int) ([]obs.Event, obs.Snapshot) {
		return campaignTrace(t, func(camp *obs.Campaign) error {
			_, err := runFigure6(context.Background(), sim.Runner{Workers: workers, Campaign: camp}, cfg)
			return err
		})
	}
	serialEvents, serialSnap := campaign(1)
	parallelEvents, _ := campaign(manyWorkers())

	// Both locations number their trials from 0, so a trial is its ID and
	// its label path together.
	slice := func(events []obs.Event, trial int, labels string) []obs.Event {
		var out []obs.Event
		for _, e := range trialSlice(events, trial) {
			if e.Labels == labels {
				out = append(out, e)
			}
		}
		return out
	}
	runs := DefaultFigure6Config().Runs
	var replaySnaps []obs.Snapshot
	for _, loc := range []string{"A", "B"} {
		for k := 0; k < runs; k++ {
			labels := fmt.Sprintf("fig6/loc=%s/run=%d", loc, k)
			serial := slice(serialEvents, k, labels)
			if len(serial) != 10 {
				t.Fatalf("%s: %d events, want 10 rounds", labels, len(serial))
			}
			assertEventsByteIdentical(t, "worker counts "+labels, serial, slice(parallelEvents, k, labels))

			rc := traceCampaign()
			if _, err := ReplayTrial(context.Background(), ReplayRequest{
				Labels: labels, Trial: k, Seed: cfg.Seed, Rounds: len(serial), Campaign: rc,
			}); err != nil {
				t.Fatalf("replay %s: %v", labels, err)
			}
			assertEventsByteIdentical(t, "replay "+labels, serial, slice(rc.Trace.Events(), k, labels))
			replaySnaps = append(replaySnaps, rc.Registry.Snapshot())
		}
	}

	merged := obstest.Merge(replaySnaps...).Deterministic()
	if want := serialSnap.Deterministic(); !reflect.DeepEqual(want, merged) {
		bw, _ := json.Marshal(want)
		bm, _ := json.Marshal(merged)
		t.Fatalf("merged replay metrics differ from the campaign's:\ncampaign: %s\nreplays:  %s", bw, bm)
	}
}

// simNamespaces restricts a snapshot to the simulation-layer instruments
// (core./link./fault.) — the part a runner-less replay reproduces. The
// robustness campaign's runner.* counters track scheduling bookkeeping
// that per-trial replays legitimately lack.
func simNamespaces(s obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{},
	}
	keep := func(name string) bool {
		return strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "link.") || strings.HasPrefix(name, "fault.")
	}
	for n, v := range s.Counters {
		if keep(n) {
			out.Counters[n] = v
		}
	}
	for n, h := range s.Histograms {
		if keep(n) {
			out.Histograms[n] = h
		}
	}
	return out
}

func TestRobustnessReplayDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := RobustnessConfig{
		Seed: 11, PayloadBytes: 48, Transfers: 3,
		BaseProfile: "bursty", LossBadPoints: []float64{0.95},
	}
	campaign := func(workers int) ([]obs.Event, obs.Snapshot) {
		c := cfg
		c.Workers = workers
		return campaignTrace(t, func(camp *obs.Campaign) error {
			c.Campaign = camp
			_, err := RobustnessCtx(context.Background(), c)
			return err
		})
	}
	serialEvents, serialSnap := campaign(1)
	parallelEvents, _ := campaign(manyWorkers())

	trials := len(cfg.LossBadPoints) * 2 * cfg.Transfers // points × modes × transfers
	sawSegments := false
	var replaySnaps []obs.Snapshot
	for k := 0; k < trials; k++ {
		serial := trialSlice(serialEvents, k)
		if len(serial) == 0 {
			t.Fatalf("trial %d emitted no events", k)
		}
		assertEventsByteIdentical(t, "worker counts", serial, trialSlice(parallelEvents, k))
		for _, e := range serial {
			if e.Kind == "segment" {
				sawSegments = true
			}
		}

		rc := traceCampaign()
		if _, err := ReplayTrial(context.Background(), ReplayRequest{
			Labels: serial[0].Labels, Trial: k, Seed: cfg.Seed,
			PayloadBytes: cfg.PayloadBytes, FaultProfile: cfg.BaseProfile,
			Campaign: rc,
		}); err != nil {
			t.Fatalf("replay trial %d (%s): %v", k, serial[0].Labels, err)
		}
		assertEventsByteIdentical(t, "replay "+serial[0].Labels, serial, trialSlice(rc.Trace.Events(), k))
		replaySnaps = append(replaySnaps, rc.Registry.Snapshot())
	}
	if !sawSegments {
		t.Fatal("no segment events in the campaign — ARQ path not exercised")
	}

	// Simulation-layer metrics: merged replays == campaign, exactly.
	merged := simNamespaces(obstest.Merge(replaySnaps...).Deterministic())
	if want := simNamespaces(serialSnap.Deterministic()); !reflect.DeepEqual(want, merged) {
		bw, _ := json.Marshal(want)
		bm, _ := json.Marshal(merged)
		t.Fatalf("merged replay metrics differ from the campaign's:\ncampaign: %s\nreplays:  %s", bw, bm)
	}
	if serialSnap.Counters["link.transfers_started"] == 0 {
		t.Fatal("campaign started no transfers — vacuous comparison")
	}
}

// TestFECAblationReplayWithoutRounds replays every ablation/fec trial the
// way witag-trace does without -rounds: Rounds is the trial's count of
// round events, which for fec counts rounds, not frames. Replay must run
// the table's fixed frame count anyway, as it must when Rounds is 0.
func TestFECAblationReplayWithoutRounds(t *testing.T) {
	const seed = 42
	a, err := ablationByKey("fec")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := campaignTrace(t, func(c *obs.Campaign) error {
		_, err := runAblation(context.Background(), sim.Runner{Workers: 1, Campaign: c}, "fec", seed, a.size(0))
		return err
	})
	for k := 0; k < a.n; k++ {
		orig := trialSlice(events, k)
		if len(orig) == 0 {
			t.Fatalf("trial %d emitted no events", k)
		}
		rounds := 0
		for _, e := range orig {
			if e.Kind == "round" {
				rounds++
			}
		}
		if rounds == a.frames {
			t.Fatalf("trial %d: %d round events equal the frame count — the test would not tell them apart", k, rounds)
		}
		for _, n := range []int{rounds, 0} {
			rc := traceCampaign()
			if _, err := ReplayTrial(context.Background(), ReplayRequest{
				Labels: orig[0].Labels, Trial: k, Seed: seed, Rounds: n, Campaign: rc,
			}); err != nil {
				t.Fatalf("replay trial %d with Rounds=%d: %v", k, n, err)
			}
			assertEventsByteIdentical(t, fmt.Sprintf("replay %s with Rounds=%d", orig[0].Labels, n), orig, trialSlice(rc.Trace.Events(), k))
		}
	}
}
