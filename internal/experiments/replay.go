package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/sim"
)

// Forensic replay: rebuild exactly one trial of a campaign from the
// stats.SubSeed label path its trace events carry, and re-run it with a
// fresh observer attached. The replay invariant (proved by the
// determinism suite, see DESIGN.md §11): because a trial's outcome is a
// pure function of its labeled seeds, the replayed trial's deterministic
// metrics and its trace events are byte-identical to the original
// campaign's slice, at any worker count.
//
// The label tokens from the trace are used VERBATIM as seed-path
// elements (never re-formatted), so replay exactness cannot be lost to a
// formatting round trip; numeric values are parsed only where the
// deployment geometry needs them.

// ReplayRequest identifies one trial to re-run.
type ReplayRequest struct {
	// Labels is the trial's seed-label path from its trace events, e.g.
	// "fig5/d=3/run=2" or "robust/lb=0.95/tr=17/mode=arq".
	Labels string
	// Trial is the original trace ID; replayed events carry it so they
	// compare equal against the original trace's slice.
	Trial int
	// Seed is the campaign's root seed (the -seed the original run used).
	Seed int64
	// Rounds is the per-trial round count for round-driven experiments
	// (fig5/fig6/ablations). Derivable from the trace: the number of
	// "round" events the trial emitted. Ignored for ablation/fec, which
	// runs the ablation table's fixed frame count.
	Rounds int
	// PayloadBytes and FaultProfile mirror the robustness campaign's
	// configuration; ignored by other experiments.
	PayloadBytes int
	FaultProfile string
	// Campaign receives the replayed trial's metrics and trace events;
	// typically a fresh one with a trace ring, so the replay is isolated
	// from the campaign that produced the original trace.
	Campaign *obs.Campaign
}

// ReplayTrial re-runs the one trial req names and returns a short
// human-readable outcome summary. The trial's events land in
// req.Campaign.
func ReplayTrial(ctx context.Context, req ReplayRequest) (string, error) {
	toks := strings.Split(req.Labels, "/")
	switch toks[0] {
	case "fig5":
		return replayFigure5(ctx, req, toks)
	case "fig6":
		return replayFigure6(ctx, req, toks)
	case "robust":
		return replayRobustness(ctx, req, toks)
	case "power":
		return replayPower(ctx, req, toks)
	case "ablation":
		return replayAblation(ctx, req, toks)
	case "fig3", "s41", "compare":
		return "", fmt.Errorf("experiments: %s has no Monte-Carlo trials to replay — re-run `witag-bench -experiment %[1]s` instead", toks[0])
	case "sim":
		return "", fmt.Errorf("experiments: witag-sim trials depend on its deployment flags (-ap, -tag, -walls, -cipher, -gain, -temp, -fault, -traffic, -transfer, -payload), which the trace does not carry — re-run witag-sim with the original flags and -seed; the Config of its BENCH_sim.json series holds them all")
	default:
		return "", fmt.Errorf("experiments: unrecognised label path %q (want fig5/…, fig6/…, robust/…, power/…, ablation/…)", req.Labels)
	}
}

// labelValue extracts "<key>=<value>" from one label token.
func labelValue(tok, key string) (string, error) {
	v, ok := strings.CutPrefix(tok, key+"=")
	if !ok || v == "" {
		return "", fmt.Errorf("experiments: label token %q is not %s=…", tok, key)
	}
	return v, nil
}

func labelFloat(tok, key string) (float64, error) {
	v, err := labelValue(tok, key)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("experiments: label token %q: %w", tok, err)
	}
	return f, nil
}

func labelInt(tok, key string) (int, error) {
	v, err := labelValue(tok, key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("experiments: label token %q: %w", tok, err)
	}
	return n, nil
}

// replayRunTrial runs the rebuilt trial, of req.Rounds rounds, on a
// single-worker runner scoped to the replay campaign (so runner.* counters
// match a campaign slice's shape).
func replayRunTrial(ctx context.Context, req ReplayRequest, t sim.Trial) (sim.RunStats, error) {
	if req.Rounds < 1 {
		return sim.RunStats{}, fmt.Errorf("experiments: replaying %s needs the per-trial round count", req.Labels)
	}
	t.ID = req.Trial
	rs, err := sim.Runner{Workers: 1, Campaign: req.Campaign}.RunTrials(ctx, []sim.Trial{t})
	if err != nil {
		return sim.RunStats{}, err
	}
	return rs[0], nil
}

func replayFigure5(ctx context.Context, req ReplayRequest, toks []string) (string, error) {
	if len(toks) != 3 {
		return "", fmt.Errorf("experiments: fig5 labels are fig5/d=…/run=…, got %q", req.Labels)
	}
	dLabel, runLabel := toks[1], toks[2]
	d, err := labelFloat(dLabel, "d")
	if err != nil {
		return "", err
	}
	if _, err := labelInt(runLabel, "run"); err != nil {
		return "", err
	}
	rs, err := replayRunTrial(ctx, req, figure5Trial(req.Seed, d, dLabel, runLabel, req.Rounds))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("fig5 d=%gm: BER=%.4f detection=%.2f over %d rounds", d, rs.BER, rs.DetectionRate, req.Rounds), nil
}

func replayFigure6(ctx context.Context, req ReplayRequest, toks []string) (string, error) {
	if len(toks) != 3 {
		return "", fmt.Errorf("experiments: fig6 labels are fig6/loc=…/run=…, got %q", req.Labels)
	}
	locLabel, runLabel := toks[1], toks[2]
	locStr, err := labelValue(locLabel, "loc")
	if err != nil {
		return "", err
	}
	if len(locStr) != 1 {
		return "", fmt.Errorf("experiments: location %q is not a single letter", locStr)
	}
	loc := NLoSLocation(locStr[0])
	if _, err := labelInt(runLabel, "run"); err != nil {
		return "", err
	}
	// req.Seed is the suite's root seed; each location ran at its own.
	rs, err := replayRunTrial(ctx, req, figure6Trial(loc, figure6Seed(req.Seed, loc), locLabel, runLabel, req.Rounds))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("fig6 loc=%c: BER=%.4f detection=%.2f over %d rounds", loc, rs.BER, rs.DetectionRate, req.Rounds), nil
}

func replayRobustness(ctx context.Context, req ReplayRequest, toks []string) (string, error) {
	if len(toks) != 4 {
		return "", fmt.Errorf("experiments: robust labels are robust/lb=…/tr=…/mode=…, got %q", req.Labels)
	}
	lb, err := labelFloat(toks[1], "lb")
	if err != nil {
		return "", err
	}
	tr, err := labelInt(toks[2], "tr")
	if err != nil {
		return "", err
	}
	modeStr, err := labelValue(toks[3], "mode")
	if err != nil {
		return "", err
	}
	var mode int
	switch modeStr {
	case "base":
		mode = 0
	case "arq":
		mode = 1
	default:
		return "", fmt.Errorf("experiments: transfer mode %q is neither base nor arq", modeStr)
	}
	base, err := fault.Named(req.FaultProfile)
	if err != nil {
		return "", err
	}
	if req.PayloadBytes < 1 {
		return "", fmt.Errorf("experiments: robust replay needs the campaign's payload size")
	}
	cfg := RobustnessConfig{Seed: req.Seed, PayloadBytes: req.PayloadBytes}
	rt, err := robustnessTransfer(ctx, cfg, base, lb, mode, req.Trial, tr, req.Campaign.ObserverRef())
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("robust lb=%g tr=%d mode=%s: delivered=%v retries=%d rounds=%d level=%d injected sub/trig/ba/brown=%d/%d/%d/%d",
		lb, tr, modeStr, rt.delivered, rt.retries, rt.rounds, rt.level, rt.injSub, rt.injTrig, rt.injBA, rt.injBrown), nil
}

func replayPower(ctx context.Context, req ReplayRequest, toks []string) (string, error) {
	if len(toks) != 2 {
		return "", fmt.Errorf("experiments: power labels are power/cfg=…, got %q", req.Labels)
	}
	i, err := labelInt(toks[1], "cfg")
	if err != nil {
		return "", err
	}
	row, err := powerRow(ctx, req.Seed, i, req.Campaign.ObserverRef())
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("power cfg=%d (%s): BER@35°C=%.4f over %d rounds", i, row.Label, row.TagBERAt35C, powerRows), nil
}

func replayAblation(ctx context.Context, req ReplayRequest, toks []string) (string, error) {
	if len(toks) != 3 {
		return "", fmt.Errorf("experiments: ablation labels are ablation/<name>/cfg=…, got %q", req.Labels)
	}
	i, err := labelInt(toks[2], "cfg")
	if err != nil {
		return "", err
	}
	a, err := ablationByKey(toks[1])
	if err != nil {
		return "", err
	}
	if i < 0 || i >= a.n {
		return "", fmt.Errorf("experiments: ablation %s config %d outside [0,%d)", a.key, i, a.n)
	}
	size := req.Rounds
	if a.frames > 0 {
		size = a.frames
	} else if size < 1 {
		return "", fmt.Errorf("experiments: ablation replay needs the campaign's round count")
	}
	res, err := a.row(ctx, ablationTrial{key: a.key, seed: req.Seed, size: size, i: i, o: req.Campaign.ObserverRef()})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("ablation %s cfg=%d (%s): BER=%.4f %s", a.key, i, res.Label, res.BER, res.Note), nil
}
