package experiments

import (
	"context"
	"fmt"
	"strings"

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
// one ablationTrial — the configuration index and an explicit observer
// among it — so forensic replay can re-run exactly one flagged
// configuration with a fresh recorder (labels "ablation/<key>/cfg=<i>").

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
	// Label names the ablation; witag-bench keys its BENCH series by it.
	Label string `json:"-"`
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

// ablation is everything known about one ablation.
type ablation struct {
	key   string // replay label path element: "ablation/<key>/cfg=<i>"
	label string // witag-bench's BENCH series key and error prefix
	title string
	n     int // configuration count
	// per divides witag-bench's -rounds into rounds per configuration.
	// frames, when non-zero, is instead a fixed frame count per
	// configuration (fec), the same at any -rounds, so replay takes it
	// from here rather than from the trace's round events.
	per, frames int
	row         func(ctx context.Context, t ablationTrial) (AblationRow, error)
	check       func(rows []AblationRow) error // the shape claim; nil: none
}

// size is the ablation's size per configuration at witag-bench's
// -rounds: its fixed frame count, or its share of the rounds.
func (a *ablation) size(rounds int) int {
	if a.frames > 0 {
		return a.frames
	}
	return rounds / a.per
}

// ablations is the one table of ablations, in witag-bench's run order;
// RunAblation, RunAblations and forensic replay all read it.
var ablations = []ablation{
	{key: "switch", label: "switch mode", title: "switch design (tag mid-span, the worst case)",
		n: len(switchModes), per: 2, row: ablationSwitchRow, check: checkSwitchMode},
	{key: "trigger", label: "trigger count", title: "trigger subframes per query",
		n: len(triggerCounts), per: 4, row: ablationTriggerRow, check: checkTriggerCount},
	{key: "fec", label: "FEC framing", title: "tag-data framing and FEC (tag at 2 m, BER ≈ 0.5%)",
		n: len(fecConfigs), frames: 6, row: ablationFECRow},
	{key: "ampdu", label: "A-MPDU size", title: "A-MPDU size",
		n: len(ampduSizes), per: 4, row: ablationAMPDURow, check: checkAMPDUSize},
	{key: "mcs", label: "robust rate", title: "query MCS (robust-rate rule)",
		n: len(mcsIndices), per: 4, row: ablationMCSRow},
	{key: "crypto", label: "encryption", title: "encryption transparency",
		n: len(cryptoModes), per: 4, row: ablationCryptoRow, check: checkEncryption},
}

// ablationByKey resolves an ablation's replay key to its table entry.
func ablationByKey(key string) (*ablation, error) {
	for i := range ablations {
		if ablations[i].key == key {
			return &ablations[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown ablation %q", key)
}

// RunAblation runs the ablation whose replay key is key at size rounds
// per configuration (frames for fec) on r, and checks its shape claim.
func RunAblation(ctx context.Context, r sim.Runner, key string, seed int64, size int) (*AblationResult, error) {
	a, err := ablationByKey(key)
	if err != nil {
		return nil, err
	}
	return a.run(ctx, r, seed, size)
}

// RunAblations runs every ablation in table order, each sized from the
// bench round count rounds. It returns the results it finished together
// with the first error, wrapped as "<label>: %w".
func RunAblations(ctx context.Context, r sim.Runner, seed int64, rounds int) ([]*AblationResult, error) {
	var out []*AblationResult
	for i := range ablations {
		a := &ablations[i]
		res, err := a.run(ctx, r, seed, a.size(rounds))
		if err != nil {
			return out, fmt.Errorf("%s: %w", a.label, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// run measures every configuration on r, each instrumented through r's
// campaign, and checks the shape claim.
func (a *ablation) run(ctx context.Context, r sim.Runner, seed int64, size int) (*AblationResult, error) {
	o := r.Campaign.ObserverRef()
	rows, err := sim.Map(ctx, r, a.n, func(ctx context.Context, i int) (AblationRow, error) {
		return a.row(ctx, ablationTrial{key: a.key, seed: seed, size: size, i: i, o: o})
	})
	if err != nil {
		return nil, err
	}
	if a.check != nil {
		if err := a.check(rows); err != nil {
			return nil, err
		}
	}
	return &AblationResult{Title: a.title, Rows: rows, Label: a.label}, nil
}

// ablationTrial is one configuration's run: configuration i of the
// ablation keyed key, at size, under the campaign seed, observed by o.
type ablationTrial struct {
	key  string
	seed int64
	size int
	i    int
	o    *obs.Observer
}

// subSeed derives a seed under the label "ablation/<key>"; every
// configuration of the ablation draws the same ones.
func (t ablationTrial) subSeed(labels ...string) int64 {
	return stats.SubSeed(t.seed, append([]string{"ablation/" + t.key}, labels...)...)
}

// testbed builds the ablation's LoS testbed with the tag tagX metres from
// the client, wired to the trial's observer and trace identity.
func (t ablationTrial) testbed(tagX float64) (*core.System, *channel.Environment, error) {
	sys, env, err := LoSTestbed(tagX, t.subSeed())
	if err != nil {
		return nil, nil, err
	}
	sys.Instrument(t.o, t.i, fmt.Sprintf("ablation/%s/cfg=%d", t.key, t.i))
	return sys, env, nil
}

// measure runs size rounds of random tag data on sys and returns the
// row's BER, offered rate and goodput, for the caller to label, plus
// the run's statistics.
func (t ablationTrial) measure(ctx context.Context, sys *core.System, env *channel.Environment) (AblationRow, sim.RunStats, error) {
	rs, err := sim.MeasureRun(ctx, sys, env, t.size, t.subSeed("data"))
	if err != nil {
		return AblationRow{}, rs, err
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, rs, err
	}
	return AblationRow{BER: rs.BER, RateKbps: rate / 1e3, GoodputKbps: rate / 1e3 * (1 - rs.BER)}, rs, nil
}

// switchModes are the switch designs ablationSwitchRow compares.
var switchModes = []struct {
	label      string
	rest, flip tag.SwitchState
}{
	{"0°/180° phase flip (WiTAG)", tag.Phase0, tag.Phase180},
	{"reflective/non-reflective", tag.Short, tag.Open},
}

// ablationSwitchRow compares §5.2's phase-flip signalling with the naive
// open/short design at the worst-case (mid-span) tag position.
func ablationSwitchRow(ctx context.Context, t ablationTrial) (AblationRow, error) {
	mode := switchModes[t.i]
	sys, env, err := t.testbed(4)
	if err != nil {
		return AblationRow{}, err
	}
	sys.Tag.RestState = mode.rest
	sys.Tag.FlipState = mode.flip
	row, _, err := t.measure(ctx, sys, env)
	row.Label, row.Note = mode.label, "paper: flip doubles |Δh|"
	return row, err
}

func checkSwitchMode(rows []AblationRow) error {
	if rows[0].BER >= rows[1].BER {
		return fmt.Errorf("experiments: phase flip (BER %v) should beat on/off (BER %v)",
			rows[0].BER, rows[1].BER)
	}
	return nil
}

// triggerCounts are the trigger subframe counts ablationTriggerRow sweeps.
var triggerCounts = []int{2, 4, 8, 16}

// ablationTriggerRow sweeps the number of trigger subframes: more
// triggers improve detection robustness but spend subframes that could
// carry data (§7 notes the overhead is small against 64-subframe
// aggregates).
func ablationTriggerRow(ctx context.Context, t ablationTrial) (AblationRow, error) {
	tl := triggerCounts[t.i]
	sys, env, err := t.testbed(2)
	if err != nil {
		return AblationRow{}, err
	}
	sys.Spec.TriggerLen = tl
	sys.Spec.DataLen = 64 - tl
	if err := sys.Reshape(); err != nil {
		return AblationRow{}, err
	}
	row, rs, err := t.measure(ctx, sys, env)
	row.Label = fmt.Sprintf("%d triggers + %d data subframes", tl, 64-tl)
	row.Note = fmt.Sprintf("detection %.2f", rs.DetectionRate)
	return row, err
}

// checkTriggerCount: more triggers must not raise the data rate.
func checkTriggerCount(rows []AblationRow) error {
	if rows[0].RateKbps < rows[len(rows)-1].RateKbps {
		return fmt.Errorf("experiments: trigger overhead should reduce the data rate")
	}
	return nil
}

// fecConfigs are the tag-data codecs ablationFECRow compares.
var fecConfigs = []struct {
	label string
	codec core.Codec
}{
	{"raw CRC-16 framing", core.Codec{}},
	{"SECDED(8,4) FEC", core.Codec{FEC: true}},
	{"SECDED + depth-12 interleaver", core.Codec{FEC: true, InterleaveDepth: 12}},
}

// ablationFECRow compares raw tag bits against CRC-framed and FEC-framed
// transfers — the error-handling layer §4.1 leaves to future work. The
// metric is application goodput: payload bits delivered in verified frames
// per second. Its size is the frame count.
func ablationFECRow(ctx context.Context, t ablationTrial) (AblationRow, error) {
	const payloadBytes = 16
	cfg := fecConfigs[t.i]
	sys, env, err := t.testbed(2)
	if err != nil {
		return AblationRow{}, err
	}
	// Every codec transfers the same payload sequence.
	rng := stats.NewRNG(t.subSeed("payload"))
	delivered, attempts := 0, 0
	var st sim.Stream // totals run across frames; RxBits is per frame
	for f := 0; f < t.size; f++ {
		if err := ctx.Err(); err != nil {
			return AblationRow{}, err
		}
		payload := stats.RandomBytes(rng, payloadBytes)
		bits, err := cfg.codec.Encode(payload)
		if err != nil {
			return AblationRow{}, err
		}
		st.RxBits = nil
		if err := st.Send(ctx, sys, env, bits); err != nil {
			return AblationRow{}, err
		}
		attempts++
		got, _, err := cfg.codec.Decode(st.RxBits)
		if err == nil && string(got) == string(payload) {
			delivered++
		}
	}
	goodput := float64(delivered*payloadBytes*8) / st.Airtime.Seconds() / 1e3
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, err
	}
	expansion := float64(cfg.codec.EncodedBits(payloadBytes)) / float64(payloadBytes*8)
	return AblationRow{
		Label:       cfg.label,
		BER:         st.BERSum / float64(st.Rounds),
		RateKbps:    rate / 1e3,
		GoodputKbps: goodput,
		Note:        fmt.Sprintf("%d/%d frames verified, %.1fx coding expansion", delivered, attempts, expansion),
	}, nil
}

// ampduSizes are the aggregate sizes ablationAMPDURow sweeps.
var ampduSizes = []int{8, 16, 32, 64}

// ablationAMPDURow sweeps aggregate size at the default MCS.
func ablationAMPDURow(ctx context.Context, t ablationTrial) (AblationRow, error) {
	total := ampduSizes[t.i]
	sys, env, err := t.testbed(2)
	if err != nil {
		return AblationRow{}, err
	}
	sys.Spec.TriggerLen = 4
	sys.Spec.DataLen = total - 4
	if err := sys.Reshape(); err != nil {
		return AblationRow{}, err
	}
	row, _, err := t.measure(ctx, sys, env)
	row.Label = fmt.Sprintf("%d subframes", total)
	return row, err
}

func checkAMPDUSize(rows []AblationRow) error {
	if rows[len(rows)-1].RateKbps <= rows[0].RateKbps {
		return fmt.Errorf("experiments: aggregation should amortise overhead")
	}
	return nil
}

// mcsIndices are the HT MCS indices ablationMCSRow sweeps.
var mcsIndices = []int{0, 2, 4, 7}

// ablationMCSRow sweeps the query MCS: too aggressive a rate confuses
// path-loss failures with tag zeros (§4.1's robust-rate rule).
func ablationMCSRow(ctx context.Context, t ablationTrial) (AblationRow, error) {
	idx := mcsIndices[t.i]
	sys, env, err := t.testbed(2)
	if err != nil {
		return AblationRow{}, err
	}
	m, err := dot11.HTMCS(idx)
	if err != nil {
		return AblationRow{}, err
	}
	sys.Spec.MCS = m
	if err := sys.Reshape(); err != nil {
		return AblationRow{}, err
	}
	row, rs, err := t.measure(ctx, sys, env)
	row.Label = fmt.Sprintf("MCS%d", idx)
	if rs.BER > 0.3 {
		row.Note = "modulation too robust: the tag cannot corrupt it"
	}
	return row, err
}

// cryptoModes are the network ciphers ablationCryptoRow compares.
var cryptoModes = []string{"open", "WEP-104", "WPA2-CCMP"}

// ablationCryptoRow re-runs the near-client deployment on open, WEP and
// WPA2 networks — the §4 transparency claim as a table.
func ablationCryptoRow(ctx context.Context, t ablationTrial) (AblationRow, error) {
	mode := cryptoModes[t.i]
	sys, env, err := t.testbed(1)
	if err != nil {
		return AblationRow{}, err
	}
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
	row, _, err := t.measure(ctx, sys, env)
	row.Label = mode
	row.Note = fmt.Sprintf("%d-tick subframes", sys.Spec.TicksPerSubframe)
	return row, err
}

// checkEncryption: encryption does not raise BER (it may cost rate via
// longer subframes).
func checkEncryption(rows []AblationRow) error {
	for _, row := range rows[1:] {
		if row.BER > rows[0].BER+0.02 {
			return fmt.Errorf("experiments: %s BER %v far above open %v", row.Label, row.BER, rows[0].BER)
		}
	}
	return nil
}
