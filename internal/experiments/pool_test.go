package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/sim"
)

// World storage is pooled between trials (DESIGN.md §17, stage 12): a
// trial's RNG registers and its system's and environment's scratch go,
// emptied, to the next world built. These tests hold the pools to the
// determinism contract, and the reuse to its allocation figure.

// pooledRun is everything a campaign leaves behind that must not depend
// on what the pools held when it started.
type pooledRun struct {
	result, render, timeline string
	metrics                  obs.Snapshot
}

// runPooled runs a small Figure 5, coding, robustness or ablations
// campaign under a campaign scope with a timeline attached.
func runPooled(t *testing.T, experiment string, workers int) pooledRun {
	t.Helper()
	camp := obs.NewCampaign("pool", obs.CampaignOptions{})
	tl := obs.NewTimeline(camp.Registry, obs.TimelineConfig{WindowTrials: 8})
	camp.SetTimeline(tl)
	var res *Result
	var err error
	switch experiment {
	case "fig5":
		res, err = whole(Figure5Ctx(context.Background(), Figure5Config{Seed: 42, Runs: 2, Round: 120, Workers: workers, Campaign: camp}))
	case "coding":
		cfg := obsCodingConfig(workers)
		cfg.Campaign = camp
		res, err = whole(AdaptiveCodingCtx(context.Background(), cfg))
	case "robustness":
		cfg := DefaultRobustnessConfig()
		cfg.Transfers, cfg.LossBadPoints, cfg.Workers, cfg.Campaign = 6, []float64{0, 0.8}, workers, camp
		res, err = whole(RobustnessCtx(context.Background(), cfg))
	case "ablations":
		res, err = runAblations(context.Background(), sim.Runner{Workers: workers, Campaign: camp}, SuiteConfig{Seed: 42, Rounds: 80})
	}
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res.Series)
	if err != nil {
		t.Fatal(err)
	}
	tl.Flush()
	var buf bytes.Buffer
	if err := tl.WriteJSONLFailed(&buf, ""); err != nil {
		t.Fatal(err)
	}
	return pooledRun{string(js), res.Render(), buf.String(), camp.Registry.Snapshot().Deterministic()}
}

// TestWarmPoolsMatchCold runs small Figure 5, coding, robustness and
// ablations campaigns with empty world pools, then twice more in the
// same process at one and at two workers, on pools the earlier runs
// filled: the series, the rendered table, the timeline export and every
// deterministic counter and histogram must equal the cold run's.
// (Released RNG registers are kept outside the collector's reach; a
// reused one is overwritten whole, which stats'
// TestNewRNGMatchesMathRandOnReusedRegisters holds.)
func TestWarmPoolsMatchCold(t *testing.T) {
	for _, experiment := range []string{"fig5", "coding", "robustness", "ablations"} {
		// Two collections empty the world pools, which are sync.Pools.
		runtime.GC()
		runtime.GC()
		cold := runPooled(t, experiment, 1)
		if cold.metrics.Counters["core.rounds"] == 0 {
			t.Fatalf("%s: the cold run counted no rounds", experiment)
		}
		for _, workers := range []int{1, 2, 1, 2} {
			warm := runPooled(t, experiment, workers)
			switch {
			case warm.result != cold.result:
				t.Fatalf("%s at %d workers on warm pools: result\n%s\ncold:\n%s", experiment, workers, warm.result, cold.result)
			case warm.render != cold.render:
				t.Fatalf("%s at %d workers on warm pools: table\n%s\ncold:\n%s", experiment, workers, warm.render, cold.render)
			case warm.timeline != cold.timeline:
				t.Fatalf("%s at %d workers on warm pools: timeline\n%s\ncold:\n%s", experiment, workers, warm.timeline, cold.timeline)
			case !reflect.DeepEqual(warm.metrics, cold.metrics):
				bw, _ := json.Marshal(warm.metrics)
				bc, _ := json.Marshal(cold.metrics)
				t.Fatalf("%s at %d workers on warm pools: metrics\n%s\ncold:\n%s", experiment, workers, bw, bc)
			}
		}
	}
}

// TestFigure5TrialAllocs holds a Figure 5 trial, once the pools are
// warm, under 8 KiB of allocation: its RNG registers and its world's
// scratch come from the trials before it. Before the pools a trial
// allocated about 42 KiB.
func TestFigure5TrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	tr := figure5Trial(42, 4, "d=4", "run=0", 300)
	o := obs.NewObserver(nil, nil)
	run := func() {
		if _, err := tr.Run(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	// The least of a few batches: a collection between trials empties
	// the pools, and the next trial refills them.
	const batches, trials = 5, 4
	least := ^uint64(0)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range trials {
			run()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/trials)
	}
	if least >= 8<<10 {
		t.Fatalf("a warm Figure 5 trial allocates %d B, want under 8 KiB", least)
	}
}

// TestRobustnessTransferAllocs holds a robustness transfer, once the
// pools are warm, under 16 KiB of allocation: its world, its payload
// stream and its transferer's backoff stream are released when it ends,
// so the next transfer reuses their storage. Before the sweep released
// them a transfer allocated about 47 KiB.
func TestRobustnessTransferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cfg := DefaultRobustnessConfig()
	base, err := fault.Named(cfg.BaseProfile)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(nil, nil)
	run := func() {
		if _, err := robustnessTransfer(context.Background(), cfg, base, 0.6, 1, 0, 3, o); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	// The least of a few batches, as in TestFigure5TrialAllocs.
	const batches, transfers = 5, 4
	least := ^uint64(0)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range transfers {
			run()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/transfers)
	}
	if least >= 16<<10 {
		t.Fatalf("a warm robustness transfer allocates %d B, want under 16 KiB", least)
	}
}

// TestSection41SweepAllocs holds one §4.1 sweep on one worker under
// 64 KiB of allocation: each row is airtime arithmetic on its shaped spec,
// with no aggregate built or marshalled. Building and marshalling every
// row's query allocated about 2.4 MB.
func TestSection41SweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := sim.Runner{Workers: 1}
	run := func() {
		if _, err := Section41SweepCtx(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// The least of a few sweeps, as in TestFigure5TrialAllocs.
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("a §4.1 sweep allocates %d B, want under 64 KiB", least)
	}
}

// TestCodingTrialAllocs holds a coding trial, once the pools are warm,
// under 2.25 KiB of allocation: one paired world runs ARQ, LT and RS over
// its tape, as the sweep runs it, and every transferer's storage — its
// frame bytes, ranges, shards, codes and symbol copies — goes back to
// the pools with its world. The world is built once, by its tape, and
// its payload drawn once, so two of the three trials build only their
// own system and transferer. A warm trial allocates 1,961 B; the bound
// leaves about 17% of margin. Before the transferers kept their storage
// a coding trial allocated about 17 KiB, and while every trial and the
// tape built a whole world of their own, about 3.1 KiB.
func TestCodingTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cfg := DefaultAdaptiveCodingConfig()
	prof := cfg.Profiles[1] // office: bursty faults and ambient traffic
	const tr = 3
	o := obs.NewObserver(nil, nil)
	run := func() {
		tapes := newTapeSet(len(CodingSchemes))
		for si, scheme := range CodingSchemes {
			tape := tapes.acquire(0, cfg, prof, tr)
			if _, err := codingTransfer(context.Background(), cfg, prof, scheme, si, tr, o, tape); err != nil {
				t.Fatal(err)
			}
			tapes.release(0)
		}
	}
	run()
	run()
	// The least of a few batches, as in TestFigure5TrialAllocs.
	const batches, worlds = 5, 4
	least := ^uint64(0)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range worlds {
			run()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/(worlds*uint64(len(CodingSchemes))))
	}
	if least >= 2304 {
		t.Fatalf("a warm coding trial allocates %d B, want under 2.25 KiB", least)
	}
}
