package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/dot11"
	"witag/internal/sim"
)

// The experiment tests run each harness at reduced scale and assert the
// paper's qualitative shape via ShapeChecks — so a model regression that
// changes who wins, by what factor, or where the crossover falls fails CI
// rather than silently changing EXPERIMENTS.md.

func TestLoSTestbedValidation(t *testing.T) {
	if _, _, err := LoSTestbed(0, 1); err == nil {
		t.Fatal("tag at the client accepted")
	}
	if _, _, err := LoSTestbed(8, 1); err == nil {
		t.Fatal("tag at the AP accepted")
	}
	sys, env, err := LoSTestbed(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil || env == nil {
		t.Fatal("nil testbed")
	}
	if len(env.Walls) != 0 {
		t.Fatal("LoS testbed should have no walls")
	}
}

func TestNLoSTestbeds(t *testing.T) {
	sysA, envA, err := NLoSTestbed(LocationA, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(envA.Walls) != 1 {
		t.Fatalf("location A should have 1 wall, has %d", len(envA.Walls))
	}
	sysB, envB, err := NLoSTestbed(LocationB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(envB.Walls) != 3 {
		t.Fatalf("location B should have 3 walls, has %d", len(envB.Walls))
	}
	if sysB.APPos.Dist(sysB.ClientPos) <= sysA.APPos.Dist(sysA.ClientPos) {
		t.Fatal("B must be farther than A")
	}
	if _, _, err := NLoSTestbed('Z', 1); err == nil {
		t.Fatal("unknown location accepted")
	}
}

func TestMeasureRunAccounting(t *testing.T) {
	sys, env, err := LoSTestbed(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sim.MeasureRun(context.Background(), sys, env, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Bits != 10*sys.Spec.DataLen {
		t.Fatalf("bits = %d", rs.Bits)
	}
	if rs.Airtime <= 0 {
		t.Fatal("airtime not accounted")
	}
	if rs.DetectionRate <= 0 {
		t.Fatal("detection rate missing")
	}
}

func TestFigure5ShapeSmall(t *testing.T) {
	res, err := Figure5Ctx(context.Background(), Figure5Config{Seed: 42, Runs: 2, Round: 250})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ShapeChecks(); err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "Throughput") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

func TestFigure5Validation(t *testing.T) {
	if _, err := Figure5Ctx(context.Background(), Figure5Config{Runs: 0, Round: 1}); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestFigure6ShapeSmall(t *testing.T) {
	cfg := Figure6Config{Seed: 7, Runs: 24, Round: 120}
	a, err := Figure6Ctx(context.Background(), LocationA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	b, err := Figure6Ctx(context.Background(), LocationB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFigure6Shape(a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Render(), "location A") {
		t.Fatal("render missing location")
	}
	if _, err := Figure6Ctx(context.Background(), LocationA, Figure6Config{Runs: 1, Round: 1}); err == nil {
		t.Fatal("single run accepted")
	}
	if _, err := Figure6Ctx(context.Background(), 'Q', cfg); err == nil {
		t.Fatal("unknown location accepted")
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := Figure3Ctx(context.Background(), sim.Runner{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ShapeChecks(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "switching technique") {
		t.Fatal("render malformed")
	}
}

func TestSection41Shape(t *testing.T) {
	res, err := Section41SweepCtx(context.Background(), sim.Runner{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ShapeChecks(); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty sweep")
	}
	if !strings.Contains(res.Render(), "rate Kbps") {
		t.Fatal("render malformed")
	}
	if _, err := (&Section41Result{}).Best(); err == nil {
		t.Fatal("Best on empty sweep accepted")
	}
}

func TestComparisonShape(t *testing.T) {
	res, err := PriorSystemComparison(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ShapeChecks(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "WiTAG") {
		t.Fatal("render malformed")
	}
}

// TestLoSTagRateMatchesWorld pins the world-free rate probe, bit for bit,
// to the rate built LoS testbeds report, and to the query each world's
// scheduler builds and marshals: the probe's spec, tick, cipher and
// block-ACK rate must be the ones NewSystem gives a world.
func TestLoSTagRateMatchesWorld(t *testing.T) {
	want, err := losTagRate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tagX := range []float64{1, 4, 7} {
		for _, seed := range []int64{0, 42} {
			got, err := sim.InWorld(sim.Trial{Build: losBuild(tagX, seed, nil)}, nil, func(sys *core.System, _ *channel.Environment) (float64, error) {
				agg, _, err := sys.Spec.BuildQuery(sys.Scheduler)
				if err != nil {
					return 0, err
				}
				psdu, err := agg.Marshal()
				if err != nil {
					return 0, err
				}
				ex, err := dot11.QueryRoundAirtime(len(psdu), sys.Spec.MCS, sys.Spec.Width, sys.Spec.GI, sys.BARateMbps)
				if err != nil {
					return 0, err
				}
				rate, err := sys.TagRateBps()
				if err != nil {
					return 0, err
				}
				if built := float64(sys.Spec.DataLen) / ex.Total().Seconds(); rate != built {
					t.Errorf("tag at %g m, seed %d: TagRateBps %v, built query's %v", tagX, seed, rate, built)
				}
				return rate, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("tag at %g m, seed %d: world's rate %v, probe's %v", tagX, seed, got, want)
			}
		}
	}
}

func TestSection7PowerShape(t *testing.T) {
	res, err := Section7PowerCtx(context.Background(), sim.Runner{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ShapeChecks(); err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "crystal") || !strings.Contains(out, "ring") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

// TestRunAblationsTableOrder: the suite runs every ablation of the table
// in order, labels each result, and stops at the first failure with the
// failing ablation's label in front of the error.
func TestRunAblationsTableOrder(t *testing.T) {
	cfg := SuiteConfig{Seed: 1, Rounds: 4}
	res, err := runAblations(context.Background(), sim.Runner{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := res.Series.(map[string]*AblationResult)
	if len(series) != len(ablations) {
		t.Fatalf("%d results for %d ablations", len(series), len(ablations))
	}
	for i, a := range ablations {
		if r := series[a.label]; r == nil || r.Title != a.title || len(r.Rows) != a.n {
			t.Errorf("ablation %d (%q) = %+v, want %q with %d rows", i, a.label, r, a.title, a.n)
		}
	}
	if tables := res.Render(); strings.Index(tables, ablations[0].title) > strings.Index(tables, ablations[len(ablations)-1].title) {
		t.Errorf("tables out of table order:\n%s", tables)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = runAblations(ctx, sim.Runner{}, cfg)
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), ablations[0].label+": ") || res != nil {
		t.Fatalf("cancelled suite = %v, %v; want no result and %q-prefixed context.Canceled", res, err, ablations[0].label)
	}
	if _, err := ablationByKey("nope"); err == nil {
		t.Fatal("unknown ablation key accepted")
	}
}

// runAblation runs the ablation keyed key at size per configuration on
// r, as the suite's ablations entry runs each entry of the table.
func runAblation(ctx context.Context, r sim.Runner, key string, seed int64, size int) (*AblationResult, error) {
	a, err := ablationByKey(key)
	if err != nil {
		return nil, err
	}
	return a.run(ctx, r, seed, size)
}

func TestAblationSwitchMode(t *testing.T) {
	res, err := runAblation(context.Background(), sim.Runner{}, "switch", 11, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.Render(), "phase flip") {
		t.Fatal("render malformed")
	}
}

func TestAblationTriggerCount(t *testing.T) {
	res, err := runAblation(context.Background(), sim.Runner{}, "trigger", 12, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Data rate must fall monotonically with trigger overhead.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].RateKbps > res.Rows[i-1].RateKbps {
			t.Fatalf("rate rose with more triggers: %v", res.Rows)
		}
	}
}

func TestAblationFEC(t *testing.T) {
	res, err := runAblation(context.Background(), sim.Runner{}, "fec", 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestAblationAMPDUSize(t *testing.T) {
	res, err := runAblation(context.Background(), sim.Runner{}, "ampdu", 14, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[3].RateKbps <= res.Rows[0].RateKbps {
		t.Fatal("64-subframe aggregates should beat 8-subframe")
	}
}

func TestAblationRobustRate(t *testing.T) {
	res, err := runAblation(context.Background(), sim.Runner{}, "mcs", 15, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Higher MCS gives higher offered rate (shorter subframes still bound
	// by the tick grid, but the round airtime shrinks with payload size —
	// at minimum the rate must not fall).
	if res.Rows[3].RateKbps < res.Rows[0].RateKbps {
		t.Fatal("MCS7 offered rate below MCS0")
	}
}

func TestAblationEncryption(t *testing.T) {
	res, err := runAblation(context.Background(), sim.Runner{}, "crypto", 16, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// CCMP costs rate (2-tick subframes) but not BER.
	if res.Rows[2].RateKbps >= res.Rows[0].RateKbps {
		t.Fatal("CCMP's MPDU expansion should cost offered rate")
	}
}

func TestRobustnessSweepShape(t *testing.T) {
	cfg := DefaultRobustnessConfig()
	cfg.Transfers = 25 // reduced scale; witag-bench runs 100
	res, err := RobustnessCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ShapeChecks(); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.LossBadPoints) {
		t.Fatalf("points = %d", len(res.Points))
	}
	// The acceptance claim, stated directly: some burst intensity where the
	// ARQ transfer holds ≥99% delivery while the single-shot baseline is
	// under 50%.
	hit := false
	for _, p := range res.Points {
		if p.ARQDelivery >= 0.99 && p.BaselineDelivery < 0.5 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no crossover point:\n%s", res.Render())
	}
}

func TestRobustnessConfigValidation(t *testing.T) {
	cfg := DefaultRobustnessConfig()
	cfg.PayloadBytes = 0
	if _, err := RobustnessCtx(context.Background(), cfg); err == nil {
		t.Fatal("zero payload accepted")
	}
	cfg = DefaultRobustnessConfig()
	cfg.BaseProfile = "nonesuch"
	if _, err := RobustnessCtx(context.Background(), cfg); err == nil {
		t.Fatal("unknown profile accepted")
	}
	cfg = DefaultRobustnessConfig()
	cfg.LossBadPoints = nil
	if _, err := RobustnessCtx(context.Background(), cfg); err == nil {
		t.Fatal("empty sweep accepted")
	}
}
