package sim

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"witag/internal/obs"
)

// The chunked-execution contract: with a Timeline attached, Each runs
// trials in window-sized chunks with a full barrier before each
// NoteTrials, so every logical window's delta is exactly the sum of its
// own trials' counter contributions — a pure function of the work,
// independent of worker count.

// timelineRunner returns a runner whose campaign carries a timeline of
// window-trial windows, plus the campaign's registry.
func timelineRunner(workers, window int) (Runner, *obs.Registry, *obs.Timeline) {
	c := obs.NewCampaign("timeline", obs.CampaignOptions{})
	tl := obs.NewTimeline(c.Registry, obs.TimelineConfig{WindowTrials: window})
	c.SetTimeline(tl)
	return Runner{Workers: workers, Campaign: c}, c.Registry, tl
}

// timelineJSONL runs two Each calls (10 then 7 trials) with index-
// dependent counter increments and returns the exported timeline bytes.
func timelineJSONL(t *testing.T, workers int) []byte {
	t.Helper()
	r, reg, tl := timelineRunner(workers, 4)
	c := reg.Counter("test.work")
	for _, n := range []int{10, 7} {
		err := r.Each(context.Background(), n, func(ctx context.Context, i int) error {
			c.Add(int64(i*i + 1)) // index-dependent: misattribution shows
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tl.Flush()
	var buf bytes.Buffer
	if err := tl.WriteJSONLFailed(&buf, ""); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunnerTimelineWindowsIdenticalAcrossWorkerCounts(t *testing.T) {
	seq := timelineJSONL(t, 1)
	for _, workers := range []int{2, 8} {
		if par := timelineJSONL(t, workers); !bytes.Equal(seq, par) {
			t.Errorf("timeline JSONL differs between 1 and %d workers:\n--- 1 worker\n%s--- %d workers\n%s",
				workers, seq, workers, par)
		}
	}
}

func TestRunnerTimelineWindowAttribution(t *testing.T) {
	r, reg, tl := timelineRunner(8, 4)
	c := reg.Counter("test.work")
	if err := r.Each(context.Background(), 10, func(ctx context.Context, i int) error {
		c.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tl.Flush()
	wins := tl.Windows()
	if len(wins) != 3 {
		t.Fatalf("%d windows, want 3", len(wins))
	}
	// Window k holds exactly sum(i) over its own trial indices:
	// [0,4): 0+1+2+3 = 6; [4,8): 4+..+7 = 22; [8,10): 8+9 = 17.
	for i, want := range []int64{6, 22, 17} {
		if got := wins[i].Delta.Counters["test.work"]; got != want {
			t.Errorf("window %d delta = %d, want %d (chunk barrier leaked work)", i, got, want)
		}
	}
}

func TestRunnerTimelineViaCampaignRef(t *testing.T) {
	camp := obs.NewCampaign("tl-test", obs.CampaignOptions{})
	tl := obs.NewTimeline(camp.Registry, obs.TimelineConfig{WindowTrials: 5})
	camp.SetTimeline(tl)
	defer camp.SetTimeline(nil)

	r := Runner{Workers: 4, Campaign: camp}
	if err := r.Each(context.Background(), 10, func(ctx context.Context, i int) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := tl.Total(); got != 2 {
		t.Errorf("campaign-attached timeline closed %d windows, want 2", got)
	}
}

func TestRunnerTimelineErrorAndCancelSemanticsUnchanged(t *testing.T) {
	// Chunked execution must not alter Each's contract: first error wins,
	// cancellation propagates, and accounting stays exact.
	r, reg, _ := timelineRunner(4, 4)
	sentinel := errors.New("boom")
	err := r.Each(context.Background(), 64, func(ctx context.Context, i int) error {
		if i == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Each returned %v, want the first worker error", err)
	}
	snap := reg.Snapshot()
	started := snap.Counters["runner.trials_started"]
	done := snap.Counters["runner.trials_done"]
	failed := snap.Counters["runner.trials_failed"]
	if started != done+failed || failed < 1 {
		t.Errorf("accounting broke under chunking: started %d done %d failed %d", started, done, failed)
	}

	r2, _, _ := timelineRunner(4, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	err = r2.Each(ctx, 1<<20, func(ctx context.Context, i int) error {
		if calls.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Each returned %v, want context.Canceled", err)
	}
	if calls.Load() >= 1<<19 {
		t.Errorf("cancellation did not stop the chunk loop (%d calls)", calls.Load())
	}
}
