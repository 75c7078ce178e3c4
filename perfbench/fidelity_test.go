package main

import (
	"context"
	"testing"

	"witag/internal/experiments"
)

// The traced run must rebuild the workloads' trials exactly: these tests
// run each experiment harness at a tiny scale and require the traced
// trials — with the shadow replay on every round — to reproduce its
// results bit for bit. Each traced path also checks its first trial
// against sim.MeasureRun on a fresh build.

const fidelitySeed = 42

// With one run per distance every point of the figure is a single
// traced trial's BER, so all seven distances are checked, the
// channel-sensitive mid-span among them.
func TestTracedFig5ReproducesPoints(t *testing.T) {
	ctx := context.Background()
	const rounds = 300
	want, err := experiments.Figure5Ctx(ctx, experiments.Figure5Config{Seed: fidelitySeed, Runs: 1, Round: rounds, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1)
	got, err := tr.fig5(ctx, fidelitySeed, 1, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range want.Points {
		if len(got[p.DistanceM]) != 1 || got[p.DistanceM][0] != p.BER {
			t.Errorf("d=%g: traced BERs %v, harness %v", p.DistanceM, got[p.DistanceM], p.BER)
		}
	}
	requireShadowSamples(t, tr)
}

func TestTracedFig6ReproducesRunBERs(t *testing.T) {
	ctx := context.Background()
	const runs, rounds = 16, 100
	cfg := experiments.Figure6Config{Seed: fidelitySeed, Runs: runs, Round: rounds, Workers: 2}
	a, err := experiments.Figure6Ctx(ctx, experiments.LocationA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++ // witag-bench runs location B at seed+1
	b, err := experiments.Figure6Ctx(ctx, experiments.LocationB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1)
	got, err := tr.fig6(ctx, fidelitySeed, runs, 1, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got["A"]) + len(got["B"]); n != 2*runs {
		t.Fatalf("traced %d runs, want %d", n, 2*runs)
	}
	if err := sameRunBERs(got, map[string]experiments.Figure6Series{"A": a.Series(), "B": b.Series()}); err != nil {
		t.Fatal(err)
	}
	requireShadowSamples(t, tr)
}

func TestTracedCodingReproducesOfficeCells(t *testing.T) {
	ctx := context.Background()
	cfg := experiments.DefaultAdaptiveCodingConfig()
	cfg.Seed, cfg.Transfers, cfg.Workers = fidelitySeed, 2, 2
	office, err := codingProfile(cfg, "office")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profiles = []experiments.CodingProfile{office}
	want, err := experiments.AdaptiveCodingCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1)
	got, err := tr.coding(ctx, fidelitySeed, cfg.Transfers)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameOfficeCells(got, *want); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"link.send_ms", "coding.send_ms", "sim.trial_ms"} {
		if len(tr.samples[name]) == 0 {
			t.Errorf("no %s samples", name)
		}
	}
	requireShadowSamples(t, tr)
}

func TestCodingProbesRoundTrip(t *testing.T) {
	tr := newTracer(0)
	if err := tr.codingProbes(fidelitySeed); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"coding.symbol_us", "coding.fountain_add_us", "coding.rs_parity_us", "coding.rs_reconstruct_us", "core.codec_us"} {
		if len(tr.samples[name]) < probeCalls/4 {
			t.Errorf("%s: %d samples", name, len(tr.samples[name]))
		}
	}
}

// requireShadowSamples checks that every layer of the shadow replay was
// timed and its work counted.
func requireShadowSamples(t *testing.T, tr *tracer) {
	t.Helper()
	for _, name := range []string{"channel.eval_us", "channel.advance_us", "phy.decode_model_us", "phy.distortion_us",
		"dot11.query_build_us", "core.round_us", "tag.coverage_us", "sim.build_us"} {
		if len(tr.samples[name]) == 0 {
			t.Errorf("no %s samples", name)
		}
	}
	m := layerMetrics(tr, childRun{}, nil)
	for _, name := range []string{"channel.path_sc_per_eval", "phy.decode_model_full_frac", "dot11.query_bytes",
		"dot11.query_allocs", "core.allocs_per_round", "core.subframes_per_round"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v", name, m[name])
		}
	}
}
