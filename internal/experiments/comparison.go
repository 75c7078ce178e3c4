package experiments

import (
	"context"
	"fmt"
	"strings"

	"witag/internal/baselines"
	"witag/internal/core"
	"witag/internal/obs"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/tag"
)

// §2/§6.2 comparison with prior systems, and §7's power analysis.

// ComparisonResult carries the compatibility matrix plus WiTAG's measured
// rate from this reproduction.
type ComparisonResult struct {
	Matrix            string
	MeasuredRateKbps  float64
	DeployableSystems []string
}

// PriorSystemComparison renders the comparison, with WiTAG's offered rate
// on the LoS testbed: arithmetic on the testbed's query shape
// (losTagRate), so it builds no world and draws nothing.
func PriorSystemComparison(ctx context.Context) (*ComparisonResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rate, err := losTagRate()
	if err != nil {
		return nil, err
	}
	res := &ComparisonResult{
		Matrix:           baselines.Matrix(),
		MeasuredRateKbps: rate / 1000,
	}
	for _, m := range baselines.Models() {
		if m.DeployableOnExistingNetwork() && !m.NeedsExtraReceiver {
			res.DeployableSystems = append(res.DeployableSystems, m.Name)
		}
	}
	return res, nil
}

// Render prints the comparison.
func (r *ComparisonResult) Render() string {
	var b strings.Builder
	b.WriteString("§2/§6.2: comparison with prior WiFi backscatter systems\n")
	b.WriteString(r.Matrix)
	fmt.Fprintf(&b, "WiTAG measured in this reproduction: %.1f Kbps\n", r.MeasuredRateKbps)
	fmt.Fprintf(&b, "systems deployable on an unmodified, encrypted network: %v\n", r.DeployableSystems)
	b.WriteString("paper: prior systems report 1-300 Kbps but none work with encryption on unmodified APs\n")
	return b.String()
}

// ShapeChecks asserts the comparison's headline.
func (r *ComparisonResult) ShapeChecks() error {
	if len(r.DeployableSystems) != 1 || r.DeployableSystems[0] != "WiTAG" {
		return fmt.Errorf("experiments: deployable set = %v, want [WiTAG]", r.DeployableSystems)
	}
	if r.MeasuredRateKbps < 35 || r.MeasuredRateKbps > 46 {
		return fmt.Errorf("experiments: measured rate %.1f Kbps, want ≈40", r.MeasuredRateKbps)
	}
	return nil
}

// PowerRow is one §7 oscillator configuration.
type PowerRow struct {
	Label       string
	Kind        tag.OscillatorKind
	FreqHz      float64
	PowerW      float64
	Drift5CHz   float64 // frequency shift over a 5 °C swing
	BatteryFree bool    // sustainable on 5 µW harvested power
	TagBERAt35C float64 // end-to-end BER when the room is 10 °C warm
}

// PowerResult is the §7 table.
type PowerResult struct {
	Rows []PowerRow
}

// Section7PowerCtx builds the oscillator comparison and measures the
// end-to-end consequence of clock drift: the same LoS deployment run with
// each clock at 35 °C (calibrated at 25 °C). It runs on an explicit
// runner; the oscillator configurations fan across workers, each measured
// in its own copy of the same seeded deployment so the comparison stays
// paired.
func Section7PowerCtx(ctx context.Context, r sim.Runner, seed int64) (*PowerResult, error) {
	o := r.Campaign.ObserverRef()
	rows, err := sim.Map(ctx, r, len(powerConfigs()), func(ctx context.Context, i int) (PowerRow, error) {
		return powerRow(ctx, seed, i, o)
	})
	if err != nil {
		return nil, err
	}
	return &PowerResult{Rows: rows}, nil
}

// powerConfig is one §7 oscillator configuration.
type powerConfig struct {
	label string
	kind  tag.OscillatorKind
	freq  float64
	mk    func() *tag.Clock
}

func powerConfigs() []powerConfig {
	return []powerConfig{
		{"WiTAG 50 kHz crystal", tag.CrystalOscillator, 50e3,
			func() *tag.Clock { return tag.NewCrystal50kHz(nil) }},
		{"shifting 20 MHz crystal", tag.CrystalOscillator, 20e6,
			func() *tag.Clock {
				c := tag.NewCrystal50kHz(nil)
				c.NominalHz = 20e6
				return c
			}},
		{"shifting 20 MHz ring", tag.RingOscillator, 20e6,
			func() *tag.Clock { return tag.NewRingOscillator(20e6, nil) }},
		{"WiTAG on 50 kHz ring", tag.RingOscillator, 50e3,
			func() *tag.Clock { return tag.NewRingOscillator(50e3, nil) }},
	}
}

// powerRows is the fixed per-configuration round count of the §7 table.
const powerRows = 250

// powerRow measures configuration i of the §7 table: oscillator power and
// drift plus the end-to-end BER with that clock driving the tag at 35 °C.
// Extracted from the campaign loop so forensic replay can re-run one
// configuration with a fresh observer (labels "power/cfg=<i>").
func powerRow(ctx context.Context, seed int64, i int, o *obs.Observer) (PowerRow, error) {
	configs := powerConfigs()
	if i < 0 || i >= len(configs) {
		return PowerRow{}, fmt.Errorf("experiments: power config %d outside [0,%d)", i, len(configs))
	}
	envSeed := stats.SubSeed(seed, "power")
	dataSeed := stats.SubSeed(seed, "power", "data")
	harvester := tag.Harvester{IncomeW: 5e-6, StorageJ: 0.01}
	c := configs[i]
	p, err := tag.OscillatorPowerW(c.kind, c.freq)
	if err != nil {
		return PowerRow{}, err
	}
	ok, _, err := harvester.BatteryFreeFeasible(tag.NewBudget(c.kind, c.freq, 40_000))
	if err != nil {
		return PowerRow{}, err
	}
	clk := c.mk()
	drift := clk.EffectiveHz(30) - clk.EffectiveHz(25)
	if drift < 0 {
		drift = -drift
	}

	// End-to-end BER with this clock driving the tag, room at 35 °C.
	rs, err := sim.Trial{
		Build: losBuild(1, envSeed, func(sys *core.System) error {
			sys.Tag.Clock = c.mk()
			sys.TempC = 35
			return nil
		}),
		Rounds:   powerRows,
		DataSeed: dataSeed,
		ID:       i,
		Labels:   fmt.Sprintf("power/cfg=%d", i),
	}.Run(ctx, o)
	if err != nil {
		return PowerRow{}, err
	}

	return PowerRow{
		Label: c.label, Kind: c.kind, FreqHz: c.freq, PowerW: p,
		Drift5CHz: drift, BatteryFree: ok, TagBERAt35C: rs.BER,
	}, nil
}

// Render prints the table.
func (r *PowerResult) Render() string {
	var b strings.Builder
	b.WriteString("§7: oscillator power, drift, and its end-to-end cost\n")
	fmt.Fprintf(&b, "%-26s %-10s %-12s %-14s %-12s %-12s\n",
		"Configuration", "freq", "power", "drift/5°C", "battery-free", "BER@35°C")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %-10s %-12s %-14s %-12v %-12.4f\n",
			row.Label, hz(row.FreqHz), watts(row.PowerW), hz(row.Drift5CHz),
			row.BatteryFree, row.TagBERAt35C)
	}
	b.WriteString("paper: 50 kHz crystal = a few µW and stable; ≥20 MHz crystal >1 mW;\n")
	b.WriteString("       ring oscillators drift ≈600 kHz per 5 °C, wrecking backscatter timing\n")
	return b.String()
}

func hz(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fMHz", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fkHz", v/1e3)
	default:
		return fmt.Sprintf("%.0fHz", v)
	}
}

func watts(v float64) string {
	switch {
	case v >= 1e-3:
		return fmt.Sprintf("%.2fmW", v*1e3)
	default:
		return fmt.Sprintf("%.1fµW", v*1e6)
	}
}

// ShapeChecks asserts §7's claims end to end.
func (r *PowerResult) ShapeChecks() error {
	byLabel := map[string]PowerRow{}
	for _, row := range r.Rows {
		byLabel[row.Label] = row
	}
	witag := byLabel["WiTAG 50 kHz crystal"]
	xtal20 := byLabel["shifting 20 MHz crystal"]
	ring20 := byLabel["shifting 20 MHz ring"]
	if !witag.BatteryFree {
		return fmt.Errorf("experiments: WiTAG's crystal should be battery-free on 5 µW")
	}
	if xtal20.PowerW < 1e-3 {
		return fmt.Errorf("experiments: 20 MHz crystal %v W, paper says >1 mW", xtal20.PowerW)
	}
	if xtal20.BatteryFree {
		return fmt.Errorf("experiments: 20 MHz crystal cannot be battery-free on 5 µW")
	}
	if ring20.Drift5CHz < 400e3 || ring20.Drift5CHz > 800e3 {
		return fmt.Errorf("experiments: 20 MHz ring drift %v Hz per 5 °C, paper says ≈600 kHz", ring20.Drift5CHz)
	}
	if witag.TagBERAt35C > 0.05 {
		return fmt.Errorf("experiments: crystal-clocked tag BER %v at 35 °C — should stay low", witag.TagBERAt35C)
	}
	ring50 := byLabel["WiTAG on 50 kHz ring"]
	if ring50.TagBERAt35C < 4*witag.TagBERAt35C {
		return fmt.Errorf("experiments: ring-clocked tag BER %v should collapse vs crystal %v at 35 °C",
			ring50.TagBERAt35C, witag.TagBERAt35C)
	}
	return nil
}
