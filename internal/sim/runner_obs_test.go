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

// allocSink holds what TestCampaignAllocationExact's items allocate, so
// every allocation reaches the heap.
var allocSink [12][]byte

// TestCampaignAllocationExact: PROF's allocation figures are the runner's
// runtime deltas around a campaign, so they must count a campaign's
// allocations to the object. A campaign whose 4 items each allocate three
// 48-byte objects must read 576 bytes and 12 objects more than the same
// campaign whose items allocate nothing, within one object. Counters that
// move a whole span at a time read 0 or about a span's 8 KiB more instead.
// A stray allocation elsewhere in the process can land in a measurement,
// and under -race the runner's own allocation varies from campaign to
// campaign (by 456 B in 6 objects, in about half the campaigns), so the
// test passes on the first of 20 tries whose two campaigns differ by the
// items' work alone.
func TestCampaignAllocationExact(t *testing.T) {
	const items, perItem, size = 4, 3, 48
	measure := func(alloc bool) (bytes, objects int64) {
		c := obs.NewCampaign("allocs", obs.CampaignOptions{})
		err := Runner{Workers: 1, Campaign: c}.Each(context.Background(), items, func(ctx context.Context, i int) error {
			if alloc {
				for j := range perItem {
					allocSink[i*perItem+j] = make([]byte, size)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := c.Registry.Snapshot()
		return snap.Counters["runner.alloc_bytes"], snap.Counters["runner.alloc_objects"]
	}
	measure(true) // warms the runner's goroutine and the observer
	var gotBytes, gotObjects int64
	for range 20 {
		baseBytes, baseObjects := measure(false)
		allocBytes, allocObjects := measure(true)
		gotBytes, gotObjects = allocBytes-baseBytes, allocObjects-baseObjects
		if gotBytes >= (items*perItem-1)*size && gotBytes <= (items*perItem+1)*size &&
			gotObjects >= items*perItem-1 && gotObjects <= items*perItem+1 {
			return
		}
	}
	t.Fatalf("a campaign allocating %d B in %d objects read %d B in %d objects more than an empty one",
		items*perItem*size, items*perItem, gotBytes, gotObjects)
}
