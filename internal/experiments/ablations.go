package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/crypto80211"
	"witag/internal/dot11"
	"witag/internal/obs"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/tag"
)

// Ablations over the design choices DESIGN.md calls out.
//
// Every ablation compares a handful of configurations in the *same*
// environment: the testbed and tag-data seeds are shared across the
// configurations (labeled per ablation via stats.SubSeed, so no two
// ablations alias) and only the configuration under study varies. The
// runner fans the configurations across workers; each worker builds its
// own copy of the environment, so the comparison stays paired and the
// rows come back in configuration order regardless of scheduling.
//
// Each ablation's per-configuration body is a named row function taking
// the configuration index and an explicit observer, so forensic replay
// can re-run exactly one flagged configuration with a fresh recorder
// (labels "ablation/<name>/cfg=<i>").

// AblationRow is one configuration of any ablation.
type AblationRow struct {
	Label       string
	BER         float64
	RateKbps    float64
	GoodputKbps float64
	Note        string
}

// AblationResult is a titled table.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", r.Title)
	fmt.Fprintf(&b, "%-34s %-10s %-12s %-14s %s\n", "Configuration", "BER", "rate Kbps", "goodput Kbps", "note")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-34s %-10.4f %-12.1f %-14.1f %s\n",
			row.Label, row.BER, row.RateKbps, row.GoodputKbps, row.Note)
	}
	return b.String()
}

// ablationRowFunc measures configuration i of one ablation with
// observer o attached; size is the ablation's per-configuration round
// count (frame count for fec).
type ablationRowFunc func(ctx context.Context, seed int64, size, i int, o *obs.Observer) (AblationRow, error)

// ablationByName resolves an ablation's label name to its configuration
// count and row function — the one table both the harnesses and forensic
// replay go through.
func ablationByName(name string) (int, ablationRowFunc, error) {
	switch name {
	case "switch":
		return 2, ablationSwitchRow, nil
	case "trigger":
		return 4, ablationTriggerRow, nil
	case "fec":
		return 3, ablationFECRow, nil
	case "ampdu":
		return 4, ablationAMPDURow, nil
	case "mcs":
		return 4, ablationMCSRow, nil
	case "crypto":
		return 3, ablationCryptoRow, nil
	default:
		return 0, nil, fmt.Errorf("experiments: unknown ablation %q", name)
	}
}

// ablationRows measures every configuration of the named ablation on r,
// each instrumented through r's campaign.
func ablationRows(ctx context.Context, r sim.Runner, name string, seed int64, size int) ([]AblationRow, error) {
	n, row, err := ablationByName(name)
	if err != nil {
		return nil, err
	}
	o := r.Campaign.ObserverRef()
	return sim.Map(ctx, r, n, func(ctx context.Context, i int) (AblationRow, error) {
		return row(ctx, seed, size, i, o)
	})
}

// stampAblation wires one ablation configuration's observer and trace
// identity.
func stampAblation(sys *core.System, name string, i int, o *obs.Observer) {
	sys.Instrument(o, i, fmt.Sprintf("ablation/%s/cfg=%d", name, i))
}

// AblationSwitchMode compares §5.2's phase-flip signalling with the naive
// open/short design at the worst-case (mid-span) tag position.
func AblationSwitchMode(seed int64, rounds int) (*AblationResult, error) {
	return AblationSwitchModeCtx(context.Background(), sim.Runner{}, seed, rounds)
}

// AblationSwitchModeCtx is AblationSwitchMode on an explicit runner.
func AblationSwitchModeCtx(ctx context.Context, r sim.Runner, seed int64, rounds int) (*AblationResult, error) {
	rows, err := ablationRows(ctx, r, "switch", seed, rounds)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "switch design (tag mid-span, the worst case)", Rows: rows}
	if res.Rows[0].BER >= res.Rows[1].BER {
		return nil, fmt.Errorf("experiments: phase flip (BER %v) should beat on/off (BER %v)",
			res.Rows[0].BER, res.Rows[1].BER)
	}
	return res, nil
}

func ablationSwitchRow(ctx context.Context, seed int64, rounds, i int, o *obs.Observer) (AblationRow, error) {
	envSeed := stats.SubSeed(seed, "ablation/switch")
	dataSeed := stats.SubSeed(seed, "ablation/switch", "data")
	modes := []struct {
		label      string
		rest, flip tag.SwitchState
	}{
		{"0°/180° phase flip (WiTAG)", tag.Phase0, tag.Phase180},
		{"reflective/non-reflective", tag.Short, tag.Open},
	}
	if i < 0 || i >= len(modes) {
		return AblationRow{}, fmt.Errorf("experiments: switch config %d outside [0,%d)", i, len(modes))
	}
	mode := modes[i]
	sys, env, err := LoSTestbed(4, envSeed)
	if err != nil {
		return AblationRow{}, err
	}
	stampAblation(sys, "switch", i, o)
	sys.Tag.RestState = mode.rest
	sys.Tag.FlipState = mode.flip
	rs, err := sim.MeasureRun(ctx, sys, env, rounds, dataSeed)
	if err != nil {
		return AblationRow{}, err
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Label: mode.label, BER: rs.BER, RateKbps: rate / 1e3,
		GoodputKbps: rate / 1e3 * (1 - rs.BER),
		Note:        "paper: flip doubles |Δh|",
	}, nil
}

// AblationTriggerCount sweeps the number of trigger subframes: more
// triggers improve detection robustness but spend subframes that could
// carry data (§7 notes the overhead is small against 64-subframe
// aggregates).
func AblationTriggerCount(seed int64, rounds int) (*AblationResult, error) {
	return AblationTriggerCountCtx(context.Background(), sim.Runner{}, seed, rounds)
}

// AblationTriggerCountCtx is AblationTriggerCount on an explicit runner.
func AblationTriggerCountCtx(ctx context.Context, r sim.Runner, seed int64, rounds int) (*AblationResult, error) {
	rows, err := ablationRows(ctx, r, "trigger", seed, rounds)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "trigger subframes per query", Rows: rows}
	// More triggers must not raise the data rate.
	if res.Rows[0].RateKbps < res.Rows[len(res.Rows)-1].RateKbps {
		return nil, fmt.Errorf("experiments: trigger overhead should reduce the data rate")
	}
	return res, nil
}

func ablationTriggerRow(ctx context.Context, seed int64, rounds, i int, o *obs.Observer) (AblationRow, error) {
	envSeed := stats.SubSeed(seed, "ablation/trigger")
	dataSeed := stats.SubSeed(seed, "ablation/trigger", "data")
	triggers := []int{2, 4, 8, 16}
	if i < 0 || i >= len(triggers) {
		return AblationRow{}, fmt.Errorf("experiments: trigger config %d outside [0,%d)", i, len(triggers))
	}
	tl := triggers[i]
	sys, env, err := LoSTestbed(2, envSeed)
	if err != nil {
		return AblationRow{}, err
	}
	stampAblation(sys, "trigger", i, o)
	sys.Spec.TriggerLen = tl
	sys.Spec.DataLen = 64 - tl
	if err := sys.Reshape(); err != nil {
		return AblationRow{}, err
	}
	rs, err := sim.MeasureRun(ctx, sys, env, rounds, dataSeed)
	if err != nil {
		return AblationRow{}, err
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Label:       fmt.Sprintf("%d triggers + %d data subframes", tl, 64-tl),
		BER:         rs.BER,
		RateKbps:    rate / 1e3,
		GoodputKbps: rate / 1e3 * (1 - rs.BER),
		Note:        fmt.Sprintf("detection %.2f", rs.DetectionRate),
	}, nil
}

// AblationFEC compares raw tag bits against CRC-framed and FEC-framed
// transfers — the error-handling layer §4.1 leaves to future work. The
// metric is application goodput: payload bits delivered in verified frames
// per second.
func AblationFEC(seed int64, frames int) (*AblationResult, error) {
	return AblationFECCtx(context.Background(), sim.Runner{}, seed, frames)
}

// AblationFECCtx is AblationFEC on an explicit runner.
func AblationFECCtx(ctx context.Context, r sim.Runner, seed int64, frames int) (*AblationResult, error) {
	rows, err := ablationRows(ctx, r, "fec", seed, frames)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: "tag-data framing and FEC (tag at 2 m, BER ≈ 0.5%)", Rows: rows}, nil
}

func ablationFECRow(ctx context.Context, seed int64, frames, i int, o *obs.Observer) (AblationRow, error) {
	envSeed := stats.SubSeed(seed, "ablation/fec")
	payloadSeed := stats.SubSeed(seed, "ablation/fec", "payload")
	const payloadBytes = 16
	configs := []struct {
		label string
		codec core.Codec
	}{
		{"raw CRC-16 framing", core.Codec{}},
		{"SECDED(8,4) FEC", core.Codec{FEC: true}},
		{"SECDED + depth-12 interleaver", core.Codec{FEC: true, InterleaveDepth: 12}},
	}
	if i < 0 || i >= len(configs) {
		return AblationRow{}, fmt.Errorf("experiments: fec config %d outside [0,%d)", i, len(configs))
	}
	cfg := configs[i]
	sys, env, err := LoSTestbed(2, envSeed)
	if err != nil {
		return AblationRow{}, err
	}
	stampAblation(sys, "fec", i, o)
	// Every codec transfers the same payload sequence.
	rng := stats.NewRNG(payloadSeed)
	delivered, attempts, rounds := 0, 0, 0
	var airtime time.Duration
	var berSum float64
	for f := 0; f < frames; f++ {
		if err := ctx.Err(); err != nil {
			return AblationRow{}, err
		}
		payload := stats.RandomBytes(rng, payloadBytes)
		bits, err := cfg.codec.Encode(payload)
		if err != nil {
			return AblationRow{}, err
		}
		var rx []byte
		for off := 0; off < len(bits); off += sys.Spec.DataLen {
			end := off + sys.Spec.DataLen
			if end > len(bits) {
				end = len(bits)
			}
			env.Advance(channel.RoundStepS)
			res, err := sys.QueryRound(bits[off:end])
			if err != nil {
				return AblationRow{}, err
			}
			rx = append(rx, res.RxBits[:end-off]...)
			airtime += res.Airtime
			berSum += res.BER()
			rounds++
		}
		attempts++
		got, _, err := cfg.codec.Decode(rx)
		if err == nil && string(got) == string(payload) {
			delivered++
		}
	}
	goodput := float64(delivered*payloadBytes*8) / airtime.Seconds() / 1e3
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, err
	}
	expansion := float64(cfg.codec.EncodedBits(payloadBytes)) / float64(payloadBytes*8)
	return AblationRow{
		Label:       cfg.label,
		BER:         berSum / float64(rounds),
		RateKbps:    rate / 1e3,
		GoodputKbps: goodput,
		Note:        fmt.Sprintf("%d/%d frames verified, %.1fx coding expansion", delivered, attempts, expansion),
	}, nil
}

// AblationAMPDUSize sweeps aggregate size at the default MCS.
func AblationAMPDUSize(seed int64, rounds int) (*AblationResult, error) {
	return AblationAMPDUSizeCtx(context.Background(), sim.Runner{}, seed, rounds)
}

// AblationAMPDUSizeCtx is AblationAMPDUSize on an explicit runner.
func AblationAMPDUSizeCtx(ctx context.Context, r sim.Runner, seed int64, rounds int) (*AblationResult, error) {
	rows, err := ablationRows(ctx, r, "ampdu", seed, rounds)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "A-MPDU size", Rows: rows}
	if res.Rows[len(res.Rows)-1].RateKbps <= res.Rows[0].RateKbps {
		return nil, fmt.Errorf("experiments: aggregation should amortise overhead")
	}
	return res, nil
}

func ablationAMPDURow(ctx context.Context, seed int64, rounds, i int, o *obs.Observer) (AblationRow, error) {
	envSeed := stats.SubSeed(seed, "ablation/ampdu")
	dataSeed := stats.SubSeed(seed, "ablation/ampdu", "data")
	sizes := []int{8, 16, 32, 64}
	if i < 0 || i >= len(sizes) {
		return AblationRow{}, fmt.Errorf("experiments: ampdu config %d outside [0,%d)", i, len(sizes))
	}
	total := sizes[i]
	sys, env, err := LoSTestbed(2, envSeed)
	if err != nil {
		return AblationRow{}, err
	}
	stampAblation(sys, "ampdu", i, o)
	sys.Spec.TriggerLen = 4
	sys.Spec.DataLen = total - 4
	if err := sys.Reshape(); err != nil {
		return AblationRow{}, err
	}
	rs, err := sim.MeasureRun(ctx, sys, env, rounds, dataSeed)
	if err != nil {
		return AblationRow{}, err
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Label:       fmt.Sprintf("%d subframes", total),
		BER:         rs.BER,
		RateKbps:    rate / 1e3,
		GoodputKbps: rate / 1e3 * (1 - rs.BER),
	}, nil
}

// AblationRobustRate sweeps the query MCS: too aggressive a rate confuses
// path-loss failures with tag zeros (§4.1's robust-rate rule).
func AblationRobustRate(seed int64, rounds int) (*AblationResult, error) {
	return AblationRobustRateCtx(context.Background(), sim.Runner{}, seed, rounds)
}

// AblationRobustRateCtx is AblationRobustRate on an explicit runner.
func AblationRobustRateCtx(ctx context.Context, r sim.Runner, seed int64, rounds int) (*AblationResult, error) {
	rows, err := ablationRows(ctx, r, "mcs", seed, rounds)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: "query MCS (robust-rate rule)", Rows: rows}, nil
}

func ablationMCSRow(ctx context.Context, seed int64, rounds, i int, o *obs.Observer) (AblationRow, error) {
	envSeed := stats.SubSeed(seed, "ablation/mcs")
	dataSeed := stats.SubSeed(seed, "ablation/mcs", "data")
	idxs := []int{0, 2, 4, 7}
	if i < 0 || i >= len(idxs) {
		return AblationRow{}, fmt.Errorf("experiments: mcs config %d outside [0,%d)", i, len(idxs))
	}
	idx := idxs[i]
	sys, env, err := LoSTestbed(2, envSeed)
	if err != nil {
		return AblationRow{}, err
	}
	stampAblation(sys, "mcs", i, o)
	m, err := dot11.HTMCS(idx)
	if err != nil {
		return AblationRow{}, err
	}
	sys.Spec.MCS = m
	if err := sys.Reshape(); err != nil {
		return AblationRow{}, err
	}
	rs, err := sim.MeasureRun(ctx, sys, env, rounds, dataSeed)
	if err != nil {
		return AblationRow{}, err
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, err
	}
	note := ""
	if rs.BER > 0.3 {
		note = "modulation too robust: the tag cannot corrupt it"
	}
	return AblationRow{
		Label:       fmt.Sprintf("MCS%d", idx),
		BER:         rs.BER,
		RateKbps:    rate / 1e3,
		GoodputKbps: rate / 1e3 * (1 - rs.BER),
		Note:        note,
	}, nil
}

// AblationEncryption re-runs the near-client deployment on open, WEP and
// WPA2 networks — the §4 transparency claim as a table.
func AblationEncryption(seed int64, rounds int) (*AblationResult, error) {
	return AblationEncryptionCtx(context.Background(), sim.Runner{}, seed, rounds)
}

// AblationEncryptionCtx is AblationEncryption on an explicit runner.
func AblationEncryptionCtx(ctx context.Context, r sim.Runner, seed int64, rounds int) (*AblationResult, error) {
	rows, err := ablationRows(ctx, r, "crypto", seed, rounds)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "encryption transparency", Rows: rows}
	// The claim: encryption does not raise BER (it may cost rate via
	// longer subframes).
	for _, row := range res.Rows[1:] {
		if row.BER > res.Rows[0].BER+0.02 {
			return nil, fmt.Errorf("experiments: %s BER %v far above open %v", row.Label, row.BER, res.Rows[0].BER)
		}
	}
	return res, nil
}

func ablationCryptoRow(ctx context.Context, seed int64, rounds, i int, o *obs.Observer) (AblationRow, error) {
	envSeed := stats.SubSeed(seed, "ablation/crypto")
	dataSeed := stats.SubSeed(seed, "ablation/crypto", "data")
	modes := []string{"open", "WEP-104", "WPA2-CCMP"}
	if i < 0 || i >= len(modes) {
		return AblationRow{}, fmt.Errorf("experiments: crypto config %d outside [0,%d)", i, len(modes))
	}
	mode := modes[i]
	sys, env, err := LoSTestbed(1, envSeed)
	if err != nil {
		return AblationRow{}, err
	}
	stampAblation(sys, "crypto", i, o)
	switch mode {
	case "WEP-104":
		c, err := crypto80211.NewWEP(make([]byte, 13), 0)
		if err != nil {
			return AblationRow{}, err
		}
		sys.Cipher = c
		sys.Scheduler.Cipher = c
	case "WPA2-CCMP":
		c, err := crypto80211.NewCCMP(make([]byte, 16), [6]byte{2, 0, 0, 0, 0, 0x10}, 0)
		if err != nil {
			return AblationRow{}, err
		}
		sys.Cipher = c
		sys.Scheduler.Cipher = c
	}
	if err := sys.Reshape(); err != nil {
		return AblationRow{}, err
	}
	rs, err := sim.MeasureRun(ctx, sys, env, rounds, dataSeed)
	if err != nil {
		return AblationRow{}, err
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Label:       mode,
		BER:         rs.BER,
		RateKbps:    rate / 1e3,
		GoodputKbps: rate / 1e3 * (1 - rs.BER),
		Note:        fmt.Sprintf("%d-tick subframes", sys.Spec.TicksPerSubframe),
	}, nil
}
