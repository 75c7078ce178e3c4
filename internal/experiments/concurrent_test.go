package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"witag/internal/obs"
)

// Harnesses take their instrumentation explicitly, so one process can run
// two of them at once, each reporting into its own campaign. Each must
// behave exactly as if it ran alone: same results, and a campaign whose
// deterministic metrics hold its own harness's work and nothing else.

// harnessRun is one harness under test: run executes it against a
// campaign and returns its result.
type harnessRun struct {
	name string
	run  func(ctx context.Context, c *obs.Campaign) (any, error)
}

// harnessOutcome is what one run leaves behind.
type harnessOutcome struct {
	res  any
	snap obs.Snapshot
}

func concurrentHarnesses() []harnessRun {
	return []harnessRun{
		{"fig5", func(ctx context.Context, c *obs.Campaign) (any, error) {
			return Figure5Ctx(ctx, Figure5Config{Seed: 5, Runs: 2, Round: 40, Workers: 2, Campaign: c})
		}},
		{"coding", func(ctx context.Context, c *obs.Campaign) (any, error) {
			cfg := DefaultAdaptiveCodingConfig()
			cfg.Transfers, cfg.Workers, cfg.Campaign = 2, 2, c
			cfg.Profiles = cfg.Profiles[:2]
			return AdaptiveCodingCtx(ctx, cfg)
		}},
	}
}

// runHarness runs h under a fresh campaign with a trace ring.
func runHarness(h harnessRun) (harnessOutcome, error) {
	c := obs.NewCampaign(h.name, obs.CampaignOptions{TraceCap: 1 << 12})
	res, err := h.run(context.Background(), c)
	return harnessOutcome{res, c.Registry.Snapshot().Deterministic()}, err
}

func TestConcurrentHarnessesIsolated(t *testing.T) {
	hs := concurrentHarnesses()
	solo := make([]harnessOutcome, len(hs))
	for i, h := range hs {
		out, err := runHarness(h)
		if err != nil {
			t.Fatalf("%s solo: %v", h.name, err)
		}
		solo[i] = out
	}

	together := make([]harnessOutcome, len(hs))
	errs := make([]error, len(hs))
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = runHarness(h)
		}()
	}
	wg.Wait()

	for i, h := range hs {
		if errs[i] != nil {
			t.Fatalf("%s concurrent: %v", h.name, errs[i])
		}
		if !reflect.DeepEqual(solo[i].res, together[i].res) {
			a, _ := json.Marshal(solo[i].res)
			b, _ := json.Marshal(together[i].res)
			t.Fatalf("%s: running beside another harness changed the result:\nsolo:       %s\nconcurrent: %s", h.name, a, b)
		}
		if !reflect.DeepEqual(solo[i].snap, together[i].snap) {
			a, _ := json.Marshal(solo[i].snap)
			b, _ := json.Marshal(together[i].snap)
			t.Fatalf("%s: the campaign's deterministic metrics smeared:\nsolo:       %s\nconcurrent: %s", h.name, a, b)
		}
		if solo[i].snap.Counters["core.rounds"] == 0 {
			t.Fatalf("%s: campaign recorded no rounds — vacuous comparison", h.name)
		}
	}
	// Guard against both harnesses writing one shared sink: only the
	// coding sweep transfers anything.
	if got := together[0].snap.Counters["coding.transfers_started"]; got != 0 {
		t.Fatalf("fig5 campaign counted %d coding transfers from its neighbour", got)
	}
}
