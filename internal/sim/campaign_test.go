package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"witag/internal/obs"
	"witag/internal/stats"
)

// The acceptance test for campaign scoping: two campaigns running
// concurrently in one process — same trials, separate scopes — must
// produce byte-identical science, keep their metrics fully disjoint, and
// roll up to exactly the sum. This is the isolation a long-lived serving
// process depends on: one tenant's sweep cannot smear another's numbers.

// campaignTrials builds the shared trial set; the runner's campaign
// instruments each trial's system.
func campaignTrials(n, rounds int) []Trial {
	ts := make([]Trial, n)
	for i := range ts {
		tr := testTrial(stats.SubSeed(21, fmt.Sprintf("run=%d", i)), rounds)
		tr.ID = i
		tr.Labels = fmt.Sprintf("iso/run=%d", i)
		ts[i] = tr
	}
	return ts
}

func TestConcurrentCampaignsIsolated(t *testing.T) {
	const trials, rounds, workers = 4, 25, 4

	// Reference: the same trial set run alone, uninstrumented.
	solo, err := Runner{Workers: workers}.RunTrials(context.Background(), campaignTrials(trials, rounds))
	if err != nil {
		t.Fatal(err)
	}

	hub := obs.NewHub()
	campA, err := hub.Register("tenant-a", obs.CampaignOptions{TraceCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	campB, err := hub.Register("tenant-b", obs.CampaignOptions{TraceCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}

	// Both campaigns run simultaneously, each through its own scope.
	results := make(map[string][]RunStats)
	errs := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range []*obs.Campaign{campA, campB} {
		wg.Add(1)
		go func(c *obs.Campaign) {
			defer wg.Done()
			rs, err := Runner{Workers: workers, Campaign: c}.
				RunTrials(context.Background(), campaignTrials(trials, rounds))
			mu.Lock()
			results[c.ID] = rs
			errs[c.ID] = err
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("campaign %s failed: %v", id, err)
		}
	}

	// Byte-identical science: concurrency and instrumentation changed
	// nothing relative to the solo run.
	for id, rs := range results {
		if !reflect.DeepEqual(solo, rs) {
			bs, _ := json.Marshal(solo)
			br, _ := json.Marshal(rs)
			t.Fatalf("campaign %s diverged from the solo run:\nsolo: %s\ngot:  %s", id, bs, br)
		}
	}

	// Disjoint metrics: each campaign's registry holds exactly one
	// campaign's worth of counts — not zero, not double — and their
	// deterministic views match each other exactly (same work, separate
	// scopes).
	snapA, snapB := campA.Registry.Snapshot(), campB.Registry.Snapshot()
	if got := snapA.Counters["runner.trials_done"]; got != trials {
		t.Errorf("campaign A runner.trials_done = %d, want %d (disjoint, not smeared)", got, trials)
	}
	if !reflect.DeepEqual(snapA.Deterministic(), snapB.Deterministic()) {
		ba, _ := json.Marshal(snapA.Deterministic())
		bb, _ := json.Marshal(snapB.Deterministic())
		t.Fatalf("campaign registries diverged:\nA: %s\nB: %s", ba, bb)
	}
	if snapA.Counters["core.rounds"] != int64(trials*rounds) {
		t.Errorf("campaign A core.rounds = %d, want %d", snapA.Counters["core.rounds"], trials*rounds)
	}

	// Each campaign's trace ring saw only its own rounds.
	for _, c := range []*obs.Campaign{campA, campB} {
		roundEvents := 0
		for _, ev := range c.Trace.Events() {
			if ev.Kind == "round" {
				roundEvents++
			}
		}
		if roundEvents != trials*rounds {
			t.Errorf("campaign %s trace has %d round events, want %d", c.ID, roundEvents, trials*rounds)
		}
	}

	// The hub rollup is the exact sum; the prefixed rollup keeps the
	// per-campaign series apart under campaign.<id>. prefixes.
	roll := hub.Rollup()
	if got := roll.Counters["core.rounds"]; got != int64(2*trials*rounds) {
		t.Errorf("rollup core.rounds = %d, want %d (exact sum of both campaigns)", got, 2*trials*rounds)
	}
	pre := hub.PrefixedRollup()
	for _, id := range []string{"tenant-a", "tenant-b"} {
		name := "campaign." + id + ".core.rounds"
		if got := pre.Counters[name]; got != int64(trials*rounds) {
			t.Errorf("prefixed rollup %s = %d, want %d", name, got, trials*rounds)
		}
	}
}
