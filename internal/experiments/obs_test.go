package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"witag/internal/obs"
	"witag/internal/sim"
)

// The observability layer rides the same determinism contract as the
// results (DESIGN.md §8 and §10): instrumentation draws no RNG values, so
// it cannot perturb any experiment output, and every deterministic counter
// and histogram must be byte-identical for every worker count. These tests
// are the receipts, and `make determinism` runs them alongside the result
// determinism suite.

// obsRobustnessConfig is the shared small sweep; same scale as
// TestRobustnessDeterministicAcrossWorkerCounts.
func obsRobustnessConfig(workers int) RobustnessConfig {
	return RobustnessConfig{
		Seed:          11,
		PayloadBytes:  48,
		Transfers:     6,
		Workers:       workers,
		BaseProfile:   "bursty",
		LossBadPoints: []float64{0.6, 0.95},
	}
}

// robustnessSnapshot runs the sweep under a fresh campaign and returns
// the accumulated metrics.
func robustnessSnapshot(t *testing.T, workers int) obs.Snapshot {
	t.Helper()
	cfg := obsRobustnessConfig(workers)
	cfg.Campaign = obs.NewCampaign("test", obs.CampaignOptions{})
	if _, err := RobustnessCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	return cfg.Campaign.Registry.Snapshot()
}

func TestMetricsIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := robustnessSnapshot(t, 1)
	parallel := robustnessSnapshot(t, manyWorkers())

	// The deterministic view drops wall-clock instruments;
	// everything left — every counter and every histogram bucket — must
	// match exactly. Integer-valued observations make the sums exact
	// regardless of which worker recorded them in which order.
	ds, dp := serial.Deterministic(), parallel.Deterministic()
	if !reflect.DeepEqual(ds, dp) {
		bs, _ := json.Marshal(ds)
		bp, _ := json.Marshal(dp)
		t.Fatalf("worker count changed the metrics:\nserial:   %s\nparallel: %s", bs, bp)
	}

	// Guard against the vacuous pass: the harness must actually have
	// driven the instrumented paths.
	for _, name := range []string{
		"core.rounds", "core.subframes_lost",
		"link.transfers_started", "link.segments_sent",
		"fault.subframes_lost",
	} {
		if ds.Counters[name] == 0 {
			t.Errorf("counter %s is zero — instrumentation not exercised", name)
		}
	}
	if len(ds.Histograms["core.round_airtime_us"].Counts) == 0 {
		t.Error("round airtime histogram empty")
	}
	// The volatile wall-time histogram must have been filtered out of the
	// deterministic view (it is real time and legitimately differs).
	if _, ok := ds.Histograms["runner.trial_wall_us"]; ok {
		t.Error("volatile runner.trial_wall_us leaked into the deterministic view")
	}
	if _, ok := serial.Histograms["runner.trial_wall_us"]; !ok {
		t.Error("runner.trial_wall_us missing from the full snapshot")
	}
}

// obsCodingConfig is a reduced coding sweep: two blocks of paired worlds,
// the second one partial, so link tapes are shared across blocks' edges.
func obsCodingConfig(workers int) AdaptiveCodingConfig {
	cfg := DefaultAdaptiveCodingConfig()
	cfg.Transfers, cfg.Workers = 10, workers
	return cfg
}

// TestCodingMetricsIdenticalAcrossWorkerCounts is the coding sweep's form
// of TestMetricsIdenticalAcrossWorkerCounts. Paired transfers share their
// world's link tape, and whichever reaches a round first counts its
// evaluation, so only the totals are fixed: they must not depend on the
// worker count.
func TestCodingMetricsIdenticalAcrossWorkerCounts(t *testing.T) {
	snap := func(workers int) obs.Snapshot {
		cfg := obsCodingConfig(workers)
		cfg.Campaign = obs.NewCampaign("test", obs.CampaignOptions{})
		if _, err := AdaptiveCodingCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Campaign.Registry.Snapshot().Deterministic()
	}
	ds, dp := snap(1), snap(manyWorkers())
	if !reflect.DeepEqual(ds, dp) {
		bs, _ := json.Marshal(ds)
		bp, _ := json.Marshal(dp)
		t.Fatalf("worker count changed the metrics:\nserial:   %s\nparallel: %s", bs, bp)
	}
	for _, name := range []string{
		"core.rounds", "core.channel_path_evals", "core.decode_model_evals",
		"link.transfers_started", "coding.transfers_started", "traffic.subframes_masked",
	} {
		if ds.Counters[name] == 0 {
			t.Errorf("counter %s is zero — instrumentation not exercised", name)
		}
	}
	// Three schemes replay each world, so the tapes evaluate fewer link
	// states than the sweep runs rounds.
	if evals, rounds := ds.Counters["core.decode_model_evals"], ds.Counters["core.rounds"]; evals >= 2*rounds {
		t.Errorf("%d decode-model evaluations over %d rounds: the links were not shared", evals, rounds)
	}
}

func TestInstrumentationDoesNotPerturbResults(t *testing.T) {
	cfg := obsRobustnessConfig(manyWorkers())

	bare, err := RobustnessCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Full instrumentation: registry, trace ring and progress sink.
	cfg.Campaign = obs.NewCampaign("test", obs.CampaignOptions{
		TraceCap: 1 << 12, Progress: obs.NewProgress(io.Discard, "trials"),
	})
	instrumented, err := RobustnessCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bare, instrumented) {
		bb, _ := json.Marshal(bare)
		bi, _ := json.Marshal(instrumented)
		t.Fatalf("attaching instrumentation changed the result:\nbare:         %s\ninstrumented: %s", bb, bi)
	}
	if bare.Render() != instrumented.Render() {
		t.Fatal("attaching instrumentation changed the rendered table")
	}
}

// TestTraceExportDeterministic exports the Figure 5 trace ring of fresh
// campaigns: every event is a pure function of the seeds and names its
// trial's label path, so two campaigns at one worker write the same
// bytes, and one at two workers writes the same lines in another order.
func TestTraceExportDeterministic(t *testing.T) {
	export := func(workers int) []byte {
		camp := traceCampaign()
		cfg := Figure5Config{Seed: 42, Runs: 2, Round: 60, Workers: workers, Campaign: camp}
		if _, err := Figure5Ctx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if d := camp.Trace.Dropped(); d != 0 {
			t.Fatalf("trace ring dropped %d events; enlarge the test capacity", d)
		}
		var buf bytes.Buffer
		if err := camp.Trace.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sortedLines := func(b []byte) []string {
		lines := strings.Split(string(b), "\n")
		sort.Strings(lines)
		return lines
	}

	first, second := export(1), export(1)
	if !bytes.Equal(first, second) {
		a, b := strings.Split(string(first), "\n"), strings.Split(string(second), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("two 1-worker exports differ at line %d:\n%s\n%s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("two 1-worker exports differ in length: %d and %d lines", len(a), len(b))
	}
	tr, err := obs.ReadJSONL(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 2*60 {
		t.Fatalf("export holds %d events — too few to compare", len(tr.Events))
	}
	for i, e := range tr.Events {
		if e.Labels == "" {
			t.Fatalf("event %d (%+v) carries no label path", i+1, e)
		}
	}
	if !reflect.DeepEqual(sortedLines(first), sortedLines(export(2))) {
		t.Fatal("the 2-worker export holds other lines than the 1-worker one")
	}
}

func TestTraceRoundEventCountMatchesRounds(t *testing.T) {
	const rounds = 37
	camp := obs.NewCampaign("test", obs.CampaignOptions{TraceCap: 1 << 12})
	reg, rec := camp.Registry, camp.Trace

	sys, env, err := LoSTestbed(2, 123)
	if err != nil {
		t.Fatal(err)
	}
	sys.Instrument(camp.Observer, 0, "")
	if _, err := sim.MeasureRun(context.Background(), sys, env, rounds, 456); err != nil {
		t.Fatal(err)
	}

	if got := reg.Snapshot().Counters["core.rounds"]; got != rounds {
		t.Fatalf("core.rounds = %d, want %d", got, rounds)
	}

	// The JSONL export must parse line-by-line and contain exactly one
	// "round" event per query round (the witag-sim -trace contract).
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	roundEvents := 0
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if ev.Kind == "round" {
			roundEvents++
		}
	}
	if roundEvents != rounds {
		t.Fatalf("trace has %d round events, want %d", roundEvents, rounds)
	}
}
