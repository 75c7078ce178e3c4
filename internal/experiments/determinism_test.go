package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"witag/internal/sim"
)

// The determinism-under-parallelism contract (DESIGN.md §8): every
// harness derives its trials' seeds from labeled paths, never from
// scheduling, so the worker count must not change a single bit of the
// result. These tests run the Monte-Carlo harnesses serially and on a
// many-worker pool and require byte-identical outputs.

func manyWorkers() int {
	w := runtime.NumCPU()
	if w < 4 {
		// Even on a single-core host, extra goroutines interleave rounds
		// arbitrarily — the contract is still exercised.
		w = 4
	}
	return w
}

// assertIdentical compares deep equality and the rendered bytes, so a
// drift in any float shows up however the result is consumed.
func assertIdentical(t *testing.T, serial, parallel interface{}, renderS, renderP string) {
	t.Helper()
	if !reflect.DeepEqual(serial, parallel) {
		bs, _ := json.Marshal(serial)
		bp, _ := json.Marshal(parallel)
		t.Fatalf("worker count changed the result:\nserial:   %s\nparallel: %s", bs, bp)
	}
	if renderS != renderP {
		t.Fatalf("rendered tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", renderS, renderP)
	}
}

func TestFigure5DeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := Figure5Config{Seed: 42, Runs: 2, Round: 120}
	cfg.Workers = 1
	serial, err := Figure5Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = manyWorkers()
	parallel, err := Figure5Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, serial, parallel, serial.Render(), parallel.Render())
}

func TestFigure6DeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := Figure6Config{Seed: 7, Runs: 8, Round: 60}
	cfg.Workers = 1
	serial, err := Figure6Ctx(context.Background(), LocationB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = manyWorkers()
	parallel, err := Figure6Ctx(context.Background(), LocationB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.RunBERs, parallel.RunBERs) {
		t.Fatalf("per-run BERs differ:\nserial:   %v\nparallel: %v", serial.RunBERs, parallel.RunBERs)
	}
	assertIdentical(t, serial.P90, parallel.P90, serial.Render(), parallel.Render())
}

func TestAblationsDeterministicAcrossWorkerCounts(t *testing.T) {
	// One representative ablation: the runner fans its configurations.
	ctx := context.Background()
	serial, err := runAblation(ctx, sim.Runner{Workers: 1}, "mcs", 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runAblation(ctx, sim.Runner{Workers: manyWorkers()}, "mcs", 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, serial.Rows, parallel.Rows, serial.Render(), parallel.Render())
}

func TestFigure3DeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := Figure3Ctx(context.Background(), sim.Runner{Workers: 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure3Ctx(context.Background(), sim.Runner{Workers: manyWorkers()}, 9)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, serial.Points, parallel.Points, serial.Render(), parallel.Render())
}

func TestRobustnessDeterministicAcrossWorkerCounts(t *testing.T) {
	// The link layer's retry/backoff loop draws only from labeled SubSeed
	// RNGs, so whole transfers — including jittered backoff waits — must be
	// byte-identical for every worker count.
	cfg := RobustnessConfig{
		Seed:          11,
		PayloadBytes:  48,
		Transfers:     6,
		BaseProfile:   "bursty",
		LossBadPoints: []float64{0.6, 0.95},
	}
	cfg.Workers = 1
	serial, err := RobustnessCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = manyWorkers()
	parallel, err := RobustnessCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, serial, parallel, serial.Render(), parallel.Render())
}

func TestAdaptiveCodingDeterministicAcrossWorkerCounts(t *testing.T) {
	// The coded transferers (fountain symbol streams, RS parity waves,
	// jittered backoff) draw only from labeled SubSeed RNGs, and the
	// ambient-traffic generator owns its own stream, so the full sweep must
	// be byte-identical for every worker count.
	cfg := AdaptiveCodingConfig{
		Seed:         13,
		PayloadBytes: 48,
		Transfers:    4,
		Profiles: []CodingProfile{
			{Name: "quiet", Fault: "calm", Traffic: "quiet"},
			{Name: "office", Fault: "bursty", Traffic: "office", Bursty: true},
		},
	}
	cfg.Workers = 1
	serial, err := AdaptiveCodingCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = manyWorkers()
	parallel, err := AdaptiveCodingCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, serial, parallel, serial.Render(), parallel.Render())
}
