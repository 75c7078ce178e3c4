package regress

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"witag/internal/stats"
)

// Class is a point's verdict, ordered from best to worst.
type Class string

const (
	ClassOK          Class = "ok"
	ClassImprovement Class = "improvement"
	ClassDrift       Class = "drift"
	ClassRegression  Class = "regression"
)

// rank orders classes so the worst one wins when folding verdicts.
func (c Class) rank() int {
	switch c {
	case ClassImprovement:
		return 1
	case ClassDrift:
		return 2
	case ClassRegression:
		return 3
	}
	return 0
}

// Worse returns the worse of two classes.
func Worse(a, b Class) Class {
	if b.rank() > a.rank() {
		return b
	}
	return a
}

// Options tune the sentinel's tolerance and significance thresholds.
type Options struct {
	// Tolerance is the relative tolerance band: points whose relative
	// change stays within it are ok regardless of significance.
	Tolerance float64
	// AbsTolerance is the absolute floor: differences at or below it are
	// always ok, and it guards the relative error against zero baselines.
	AbsTolerance float64
	// Alpha is the significance level for Welch/bootstrap tests.
	Alpha float64
	// HardFactor escalates drift to regression without a statistical
	// test: a point with no std/raw trials regresses when its relative
	// change exceeds HardFactor × Tolerance.
	HardFactor float64
	// BootstrapResamples sizes BootstrapP (0 = its default).
	BootstrapResamples int
}

// DefaultOptions are the witag-gate defaults.
func DefaultOptions() Options {
	return Options{
		Tolerance:    0.10,
		AbsTolerance: 1e-9,
		Alpha:        0.05,
		HardFactor:   3,
	}
}

// PointVerdict classifies one compared value of one experiment's series.
type PointVerdict struct {
	Path      string  `json:"path"` // JSON path within the series, e.g. Points[3].BER
	Baseline  float64 `json:"baseline"`
	Candidate float64 `json:"candidate"`
	RelErr    float64 `json:"relErr"`
	// P is the two-sided p-value of the statistical test, when one ran
	// (Welch on mean/std/n summaries, bootstrap on raw trial samples).
	P      *float64 `json:"p,omitempty"`
	Class  Class    `json:"class"`
	Detail string   `json:"detail,omitempty"`
}

// trialCountKey reports whether an object field names the series' trial
// count (the n the statistical tier needs).
func trialCountKey(key string) bool {
	switch strings.ToLower(key) {
	case "runs", "transfers", "trials":
		return true
	}
	return false
}

// polarity returns +1 when larger values of the named metric are better,
// -1 when smaller values are better, 0 when unknown. Unknown-polarity
// significant changes classify as regressions: an unexplained shift in the
// science blocks until a human decides it is an improvement.
func polarity(key string) int {
	k := strings.ToLower(key)
	for _, sub := range []string{"ber", "loss", "retri", "miss", "stall", "err", "level", "rounds", "power", "p50", "p90", "p99"} {
		if strings.Contains(k, sub) {
			return -1
		}
	}
	for _, sub := range []string{"throughput", "goodput", "deliver", "detect", "kbps", "rate"} {
		if strings.Contains(k, sub) {
			return +1
		}
	}
	return 0
}

// CompareSeries walks a baseline and a candidate series (the raw JSON from
// two BENCH_<name>.json artifacts) in lockstep and classifies every
// numeric leaf. Structural differences — missing keys, length mismatches,
// changed strings — are regressions: the artifact schema is part of the
// contract. n seeds the trial count from provenance; fields named
// Runs/Transfers/Trials override it for their subtree.
func CompareSeries(base, cand json.RawMessage, n int, opts Options) ([]PointVerdict, error) {
	var bv, cv any
	if err := json.Unmarshal(base, &bv); err != nil {
		return nil, fmt.Errorf("regress: baseline series: %w", err)
	}
	if err := json.Unmarshal(cand, &cv); err != nil {
		return nil, fmt.Errorf("regress: candidate series: %w", err)
	}
	c := &seriesCompare{opts: opts}
	c.walk("", "", bv, cv, n)
	return c.verdicts, nil
}

type seriesCompare struct {
	opts     Options
	verdicts []PointVerdict
}

func (c *seriesCompare) add(v PointVerdict) { c.verdicts = append(c.verdicts, v) }

func (c *seriesCompare) structural(path string, class Class, detail string) {
	c.add(PointVerdict{Path: path, Class: class, Detail: detail})
}

// walk recurses over both series; key is the leaf field name (for
// polarity and std-sibling lookup), path the full JSON path.
func (c *seriesCompare) walk(path, key string, b, cand any, n int) {
	switch bb := b.(type) {
	case map[string]any:
		cc, ok := cand.(map[string]any)
		if !ok {
			c.structural(path, ClassRegression, fmt.Sprintf("type changed: object became %T", cand))
			return
		}
		c.walkObject(path, bb, cc, n)
	case []any:
		cc, ok := cand.([]any)
		if !ok {
			c.structural(path, ClassRegression, fmt.Sprintf("type changed: array became %T", cand))
			return
		}
		c.walkArray(path, key, bb, cc, n)
	case float64:
		cc, ok := cand.(float64)
		if !ok {
			c.structural(path, ClassRegression, fmt.Sprintf("type changed: number became %T", cand))
			return
		}
		c.compareLeaf(path, key, bb, cc, nil, n)
	case string:
		if cc, ok := cand.(string); !ok || cc != bb {
			c.structural(path, ClassRegression, fmt.Sprintf("value changed: %q became %v", bb, cand))
		} else {
			c.add(PointVerdict{Path: path, Class: ClassOK, Detail: "label"})
		}
	case bool:
		if cc, ok := cand.(bool); !ok || cc != bb {
			c.structural(path, ClassRegression, fmt.Sprintf("value changed: %v became %v", bb, cand))
		} else {
			c.add(PointVerdict{Path: path, Class: ClassOK, Detail: "label"})
		}
	case nil:
		if cand != nil {
			c.structural(path, ClassRegression, fmt.Sprintf("null became %T", cand))
		}
	}
}

func (c *seriesCompare) walkObject(path string, b, cand map[string]any, n int) {
	// A local trial count overrides the inherited one for this subtree.
	for k, v := range b {
		if trialCountKey(k) {
			if f, ok := v.(float64); ok && f >= 1 {
				n = int(f)
			}
		}
	}
	keys := map[string]bool{}
	for k := range b {
		keys[k] = true
	}
	for k := range cand {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		p := joinPath(path, k)
		bv, bok := b[k]
		cv, cok := cand[k]
		if !bok {
			c.structural(p, ClassRegression, "field missing in baseline (schema changed; regenerate baselines)")
			continue
		}
		if !cok {
			c.structural(p, ClassRegression, "field missing in candidate")
			continue
		}
		// Std fields pair with their base field's statistical test; they
		// are not classified on their own.
		if base, ok := stdBase(k); ok {
			if _, isNum := bv.(float64); isNum {
				if _, baseExists := b[base]; baseExists {
					continue
				}
			}
		}
		// A numeric leaf with an XStd sibling gets the Welch treatment.
		if bf, ok := bv.(float64); ok {
			if cf, ok := cv.(float64); ok {
				if bs, cs, ok := stdSiblings(b, cand, k); ok {
					c.compareLeaf(p, k, bf, cf, &stdPair{bs, cs}, n)
					continue
				}
			}
		}
		c.walk(p, k, bv, cv, n)
	}
}

// stdBase maps "BERStd" → "BER"; ok is false for non-std keys.
func stdBase(key string) (string, bool) {
	if len(key) > 3 && strings.HasSuffix(key, "Std") {
		return strings.TrimSuffix(key, "Std"), true
	}
	return "", false
}

type stdPair struct{ base, cand float64 }

// stdSiblings fetches the XStd values for field X on both sides.
func stdSiblings(b, cand map[string]any, key string) (bs, cs float64, ok bool) {
	bv, bok := b[key+"Std"].(float64)
	cv, cok := cand[key+"Std"].(float64)
	if bok && cok {
		return bv, cv, true
	}
	return 0, 0, false
}

func (c *seriesCompare) walkArray(path, key string, b, cand []any, n int) {
	if allNumbers(b) && allNumbers(cand) && (len(b) > 1 || len(cand) > 1) {
		// Raw per-trial samples (e.g. fig6's runBERs): compared as
		// distributions, not elementwise — the trials are exchangeable.
		c.compareSamples(path, key, toFloats(b), toFloats(cand))
		return
	}
	if len(b) != len(cand) {
		c.structural(path, ClassRegression, fmt.Sprintf("length changed: %d became %d", len(b), len(cand)))
		return
	}
	for i := range b {
		c.walk(fmt.Sprintf("%s[%d]", path, i), key, b[i], cand[i], n)
	}
}

func allNumbers(xs []any) bool {
	for _, x := range xs {
		if _, ok := x.(float64); !ok {
			return false
		}
	}
	return len(xs) > 0
}

func toFloats(xs []any) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.(float64)
	}
	return out
}

// compareLeaf classifies one numeric point. std is non-nil when the point
// carries mean/std summaries (Welch applies, with n trials per side).
func (c *seriesCompare) compareLeaf(path, key string, b, cand float64, std *stdPair, n int) {
	v := PointVerdict{Path: path, Baseline: b, Candidate: cand}
	diff := cand - b
	abs := math.Abs(diff)
	v.RelErr = relErr(b, cand, c.opts.AbsTolerance)
	if abs <= c.opts.AbsTolerance || v.RelErr <= c.opts.Tolerance {
		v.Class = ClassOK
		c.add(v)
		return
	}
	significant := false
	if std != nil && n >= 2 {
		p := WelchP(b, std.base, n, cand, std.cand, n)
		v.P = &p
		significant = p < c.opts.Alpha
		v.Detail = fmt.Sprintf("Welch t on n=%d mean±std", n)
	} else {
		significant = v.RelErr > c.opts.HardFactor*c.opts.Tolerance
		v.Detail = "tolerance only (no trial statistics)"
	}
	v.Class = classify(key, diff, significant)
	c.add(v)
}

// compareSamples classifies raw trial sample sets by bootstrap.
func (c *seriesCompare) compareSamples(path, key string, b, cand []float64) {
	mb := stats.Mean(b)
	mc := stats.Mean(cand)
	v := PointVerdict{Path: path, Baseline: mb, Candidate: mc}
	diff := mc - mb
	v.RelErr = relErr(mb, mc, c.opts.AbsTolerance)
	if math.Abs(diff) <= c.opts.AbsTolerance || v.RelErr <= c.opts.Tolerance {
		v.Class = ClassOK
		c.add(v)
		return
	}
	p := BootstrapP(b, cand, c.opts.BootstrapResamples)
	v.P = &p
	v.Detail = fmt.Sprintf("bootstrap on %d vs %d raw trials", len(b), len(cand))
	v.Class = classify(key, diff, p < c.opts.Alpha)
	c.add(v)
}

// classify folds direction and significance into a class.
func classify(key string, diff float64, significant bool) Class {
	if !significant {
		return ClassDrift
	}
	dir := polarity(key)
	if dir == 0 {
		return ClassRegression
	}
	if float64(dir)*diff > 0 {
		return ClassImprovement
	}
	return ClassRegression
}

// relErr is |cand-base| relative to the baseline magnitude, floored so a
// zero baseline does not divide by zero.
func relErr(base, cand, floor float64) float64 {
	den := math.Abs(base)
	if den < floor {
		den = floor
	}
	if den == 0 {
		if cand == base {
			return 0
		}
		return maxRelErr
	}
	r := math.Abs(cand-base) / den
	if r > maxRelErr {
		return maxRelErr // keep the report JSON-encodable (no Inf)
	}
	return r
}

const maxRelErr = 1e12

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}
