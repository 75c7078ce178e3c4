package sim

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"

	"witag/internal/obs"
)

// The runner's error and cancellation semantics must hold unchanged with
// metrics and progress attached, and the bookkeeping itself must stay
// race-clean (`make race` runs this file under the detector).

func instrumentedRunner(workers int) (Runner, *obs.Registry) {
	c := obs.NewCampaign("runner", obs.CampaignOptions{TraceCap: 1 << 10, Progress: obs.NewProgress(io.Discard, "items")})
	return Runner{Workers: workers, Campaign: c}, c.Registry
}

func TestEachFirstErrorPropagatesWithInstrumentation(t *testing.T) {
	r, reg := instrumentedRunner(4)
	sentinel := errors.New("boom")
	var calls atomic.Int64
	err := r.Each(context.Background(), 64, func(ctx context.Context, i int) error {
		calls.Add(1)
		if i == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Each returned %v, want the first worker error", err)
	}

	// Accounting invariant: every started item resolved as done or
	// failed, exactly matching the number of fn invocations.
	snap := reg.Snapshot()
	started := snap.Counters["runner.trials_started"]
	done := snap.Counters["runner.trials_done"]
	failed := snap.Counters["runner.trials_failed"]
	if failed < 1 {
		t.Errorf("trials_failed = %d, want >= 1", failed)
	}
	if started != done+failed {
		t.Errorf("started %d != done %d + failed %d", started, done, failed)
	}
	if calls.Load() != started {
		t.Errorf("fn ran %d times but trials_started = %d", calls.Load(), started)
	}
}

func TestEachCancellationWithInstrumentation(t *testing.T) {
	r, reg := instrumentedRunner(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	err := r.Each(ctx, 1<<20, func(ctx context.Context, i int) error {
		if calls.Add(1) == 8 {
			cancel() // external cancellation mid-campaign
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Each returned %v, want context.Canceled", err)
	}
	snap := reg.Snapshot()
	started := snap.Counters["runner.trials_started"]
	if started >= 1<<20 {
		t.Errorf("cancellation did not stop the campaign (started %d items)", started)
	}
	if done := snap.Counters["runner.trials_done"]; started != done {
		t.Errorf("started %d != done %d with no failures", started, done)
	}
}
