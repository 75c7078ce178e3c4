package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/experiments"
	"witag/internal/stats"
)

// metricDef names one reported metric as BENCHMARK.json lists it.
type metricDef struct{ Name, Unit, Better string }

// e2eMetrics are measured on the witag-bench child processes.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"rounds_per_s", "rounds/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// layerTimings are the per-call timings of the traced run; each is
// reported as <name>.p50, <name>.tail and <name>.n.
var layerTimings = []struct{ name, unit string }{
	{"channel.eval_us", "us"},
	{"channel.advance_us", "us"},
	{"phy.decode_model_us", "us"},
	{"phy.distortion_us", "us"},
	{"dot11.query_build_us", "us"},
	{"core.round_us", "us"},
	{"tag.coverage_us", "us"},
	{"sim.build_us", "us"},
	{"sim.trial_ms", "ms"},
	{"link.send_ms", "ms"},
	{"coding.send_ms", "ms"},
	{"coding.symbol_us", "us"},
	{"coding.fountain_add_us", "us"},
	{"coding.rs_parity_us", "us"},
	{"coding.rs_reconstruct_us", "us"},
	{"core.codec_us", "us"},
}

// layerScalars are the per-layer work counts and ratios.
var layerScalars = []metricDef{
	{"channel.path_sc_per_eval", "count", "lower"},
	{"phy.decode_model_full_frac", "ratio", "lower"},
	{"dot11.query_bytes", "bytes", "lower"},
	{"dot11.query_allocs", "count", "lower"},
	{"core.alloc_bytes_per_round", "bytes", "lower"},
	{"core.allocs_per_round", "count", "lower"},
	{"core.subframes_per_round", "count", "lower"},
	{"sim.trials", "count", "lower"},
	{"sim.rounds_per_trial", "count", "lower"},
	{"sim.busy_frac", "ratio", "higher"},
	{"link.rounds_per_transfer", "count", "lower"},
	{"coding.rounds_per_transfer", "count", "lower"},
	{"coding.frames_per_transfer", "count", "lower"},
	{"fault.subframes_lost_per_round", "count", "lower"},
	{"traffic.subframes_masked_per_round", "count", "lower"},
	{"obs.overhead_frac", "ratio", "lower"},
	{"obs.trace_events", "count", "lower"},
	{"obs.timeline_windows", "count", "lower"},
	{"obs.export_mb", "MiB", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

func layerMetricDefs() []metricDef {
	var defs []metricDef
	for _, tm := range layerTimings {
		defs = append(defs,
			metricDef{tm.name + ".p50", tm.unit, "lower"},
			metricDef{tm.name + ".tail", tm.unit, "lower"},
			metricDef{tm.name + ".n", "count", "higher"})
	}
	return append(defs, layerScalars...)
}

// fig6SampleStep traces every 10th Figure 6 run of each location.
const fig6SampleStep = 10

// traceWorkload runs w's traced sample at seed and checks it against the
// end-to-end artifacts the same invocation left in dir, then runs the
// coding micro-probes.
func (t *tracer) traceWorkload(ctx context.Context, w workload, seed int64, dir string) error {
	series, err := os.ReadFile(filepath.Join(dir, "BENCH_"+w.experiment+".json"))
	if err != nil {
		return err
	}
	switch w.experiment {
	case "fig5":
		var want struct{ Series experiments.Figure5Result }
		if err := json.Unmarshal(series, &want); err != nil || len(want.Series.Points) == 0 {
			return fmt.Errorf("BENCH_fig5.json: no points (%v)", err)
		}
		bers, err := t.fig5(ctx, seed, fig5Runs, fig5Rounds)
		if err != nil {
			return err
		}
		if got := stats.Mean(bers[1]); got != want.Series.Points[0].BER {
			return fmt.Errorf("traced fig5 d=1 mean BER %v, artifact %v", got, want.Series.Points[0].BER)
		}
		if err := t.sendProbe(ctx, seed, func(i int) (*core.System, *channel.Environment, error) {
			return fig5Trial(seed, 1, i, 0, 0).build()
		}); err != nil {
			return err
		}
	case "fig6":
		var want struct {
			Series map[string]experiments.Figure6Series
		}
		if err := json.Unmarshal(series, &want); err != nil {
			return fmt.Errorf("BENCH_fig6.json: %w", err)
		}
		got, err := t.fig6(ctx, seed, fig6Runs, fig6SampleStep, fig6TrialRounds)
		if err != nil {
			return err
		}
		if err := sameRunBERs(got, want.Series); err != nil {
			return err
		}
		if err := t.sendProbe(ctx, seed, func(i int) (*core.System, *channel.Environment, error) {
			return fig6Trial(seed, experiments.LocationA, i, 0, 0).build()
		}); err != nil {
			return err
		}
	case "coding":
		var want struct {
			Series experiments.AdaptiveCodingResult
		}
		if err := json.Unmarshal(series, &want); err != nil {
			return fmt.Errorf("BENCH_coding.json: %w", err)
		}
		got, err := t.coding(ctx, seed, want.Series.Transfers)
		if err != nil {
			return err
		}
		if err := sameOfficeCells(got, want.Series); err != nil {
			return err
		}
	default:
		return fmt.Errorf("no traced run for experiment %q", w.experiment)
	}
	return t.codingProbes(seed)
}

// book records one workload trial of the traced run: its time and
// rounds, the base of sim.trial_ms and trace.overhead_frac.
func (t *tracer) book(d time.Duration, rounds int) {
	t.observe("sim.trial_ms", d)
	t.count("loop_ns", float64(d))
	t.count("loop_rounds", float64(rounds))
}

// fig5 traces every run at d = 1 m, whose mean BER is the first point of
// the figure, and run 0 at each other distance. It returns the traced
// runs' BERs by distance, in run order.
func (t *tracer) fig5(ctx context.Context, seed int64, runs, rounds int) (map[float64][]float64, error) {
	bers := map[float64][]float64{}
	for di, d := range []float64{1, 2, 3, 4, 5, 6, 7} {
		for run := 0; run < runs && (d == 1 || run == 0); run++ {
			tr := fig5Trial(seed, d, run, rounds, di*runs+run)
			rs, dur, err := t.run(ctx, tr)
			if err != nil {
				return nil, err
			}
			t.book(dur, rounds)
			if di == 0 && run == 0 {
				if err := checkUnperturbed(ctx, tr, rs); err != nil {
					return nil, err
				}
			}
			bers[d] = append(bers[d], rs.BER)
		}
	}
	return bers, nil
}

// fig6 traces every step-th run of both locations (location B at seed+1,
// as witag-bench runs it) and returns each traced run's BER by location.
func (t *tracer) fig6(ctx context.Context, seed int64, runs, step, rounds int) (map[string]map[int]float64, error) {
	got := map[string]map[int]float64{}
	for li, loc := range []experiments.NLoSLocation{experiments.LocationA, experiments.LocationB} {
		bers := map[int]float64{}
		got[string(rune(loc))] = bers
		for run := 0; run < runs; run += step {
			tr := fig6Trial(seed+int64(li), loc, run, rounds, li*runs+run)
			rs, d, err := t.run(ctx, tr)
			if err != nil {
				return nil, err
			}
			t.book(d, rounds)
			if li == 0 && run == 0 {
				if err := checkUnperturbed(ctx, tr, rs); err != nil {
					return nil, err
				}
			}
			bers[run] = rs.BER
		}
	}
	return got, nil
}

// coding traces the office profile's transfers under every scheme and
// returns its cells, then runs a round probe on each profile's first
// world for the per-round layers a transfer hides.
func (t *tracer) coding(ctx context.Context, seed int64, transfers int) ([]experiments.CodingCell, error) {
	cfg := experiments.DefaultAdaptiveCodingConfig()
	office, err := codingProfile(cfg, "office")
	if err != nil {
		return nil, err
	}
	cells, err := t.codingCells(ctx, seed, office, transfers, cfg.PayloadBytes)
	if err != nil {
		return nil, err
	}
	for pi, p := range cfg.Profiles {
		tr := trial{
			id: -1 - pi,
			build: func() (*core.System, *channel.Environment, error) {
				sys, env, _, _, err := codingWorld(seed, p, 0, cfg.PayloadBytes)
				return sys, env, err
			},
			rounds:   probeRounds,
			dataSeed: stats.SubSeed(seed, "perfbench", "rounds", p.Name),
		}
		rs, _, err := t.run(ctx, tr)
		if err != nil {
			return nil, err
		}
		if pi == 0 {
			if err := checkUnperturbed(ctx, tr, rs); err != nil {
				return nil, err
			}
		}
	}
	return cells, nil
}

func codingProfile(cfg experiments.AdaptiveCodingConfig, name string) (experiments.CodingProfile, error) {
	for _, p := range cfg.Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return experiments.CodingProfile{}, fmt.Errorf("no coding profile %q", name)
}

// sameRunBERs checks every traced Figure 6 run against its artifact BER.
func sameRunBERs(got map[string]map[int]float64, want map[string]experiments.Figure6Series) error {
	for loc, runs := range got {
		for run, ber := range runs {
			w, ok := want[loc]
			if !ok || run >= len(w.RunBERs) {
				return fmt.Errorf("fig6 artifact has no run %d at location %s", run, loc)
			}
			if ber != w.RunBERs[run] {
				return fmt.Errorf("traced fig6 location %s run %d BER %v, artifact %v", loc, run, ber, w.RunBERs[run])
			}
		}
	}
	return nil
}

// sameOfficeCells checks the traced office cells against the sweep's.
func sameOfficeCells(got []experiments.CodingCell, res experiments.AdaptiveCodingResult) error {
	for _, pt := range res.Points {
		if pt.Profile.Name != "office" {
			continue
		}
		if len(pt.Cells) != len(got) {
			return fmt.Errorf("coding office: %d traced cells, artifact %d", len(got), len(pt.Cells))
		}
		for i := range got {
			if got[i] != pt.Cells[i] {
				return fmt.Errorf("traced coding office cell %+v, artifact %+v", got[i], pt.Cells[i])
			}
		}
		return nil
	}
	return fmt.Errorf("coding result has no office profile")
}

// layerMetrics derives every per-layer metric from the traced run and
// the end-to-end run of the same invocation; sweep is the coding-sweep
// run of the same pass when e2e is coding-observed, else nil.
func layerMetrics(t *tracer, e2e childRun, sweep *childRun) map[string]float64 {
	m := map[string]float64{}
	for _, tm := range layerTimings {
		s := sorted(t.samples[tm.name])
		m[tm.name+".p50"] = percentile(s, 5000)
		m[tm.name+".tail"], _ = tail(s)
		m[tm.name+".n"] = float64(len(s))
	}
	c := t.counts
	m["channel.path_sc_per_eval"] = ratio(c["channel.path_sc"], c["channel.evals"])
	m["phy.decode_model_full_frac"] = ratio(c["phy.decode_full"], c["phy.decode_calls"])
	m["dot11.query_bytes"] = ratio(c["dot11.query_bytes"], c["dot11.alloc_calls"])
	m["dot11.query_allocs"] = ratio(c["dot11.allocs"], c["dot11.alloc_calls"])
	m["core.alloc_bytes_per_round"] = ratio(c["core.alloc_bytes"], c["core.alloc_calls"])
	m["core.allocs_per_round"] = ratio(c["core.allocs"], c["core.alloc_calls"])
	m["core.subframes_per_round"] = ratio(c["core.subframes"], c["core.rounds"])
	m["link.rounds_per_transfer"] = ratio(c["link.rounds"], c["link.transfers"])
	m["coding.rounds_per_transfer"] = ratio(c["coding.rounds"], c["coding.transfers"])
	m["coding.frames_per_transfer"] = ratio(c["coding.frames"], c["coding.transfers"])

	ec := e2e.counters
	rounds := float64(ec["core.rounds"])
	m["sim.trials"] = float64(ec["runner.trials_started"])
	m["sim.rounds_per_trial"] = ratio(rounds, m["sim.trials"])
	m["sim.busy_frac"] = ratio(e2e.cpuS, e2e.wallS*float64(workers))
	m["fault.subframes_lost_per_round"] = ratio(float64(ec["fault.subframes_lost"]), rounds)
	m["traffic.subframes_masked_per_round"] = ratio(float64(ec["traffic.subframes_masked"]), rounds)
	m["obs.overhead_frac"] = 0
	if sweep != nil && sweep.wallS > 0 {
		m["obs.overhead_frac"] = e2e.wallS/sweep.wallS - 1
	}
	m["obs.trace_events"] = float64(e2e.traceEvents)
	m["obs.timeline_windows"] = float64(e2e.timelineWindows)
	m["obs.export_mb"] = float64(e2e.exportBytes) / (1 << 20)
	if cpuPerRound := ratio(e2e.cpuS*1e9, rounds); cpuPerRound > 0 {
		m["trace.overhead_frac"] = ratio(c["loop_ns"], c["loop_rounds"])/cpuPerRound - 1
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
