package obs

import (
	"fmt"
	"sort"
)

// InstrumentDiff names one deterministic instrument that differs between
// two snapshots — the regression sentinel's equality tier renders these
// verbatim. Base/Cand carry counter values, or histogram total counts.
type InstrumentDiff struct {
	Kind   string `json:"kind"` // "counter" or "histogram"
	Name   string `json:"name"`
	Base   int64  `json:"base"`
	Cand   int64  `json:"cand"`
	Detail string `json:"detail,omitempty"`
}

// DiffDeterministic compares the deterministic views (Snapshot
// .Deterministic — non-volatile counters and histograms; wall-clock
// instruments excluded) of a baseline and a candidate snapshot
// and returns every difference, sorted by (kind, name) so the output is
// stable. An empty result means the two runs executed identically as far
// as instrumentation can see.
func DiffDeterministic(base, cand Snapshot) []InstrumentDiff {
	b, c := base.Deterministic(), cand.Deterministic()
	var out []InstrumentDiff
	for _, n := range unionKeys(b.Counters, c.Counters) {
		bv, bok := b.Counters[n]
		cv, cok := c.Counters[n]
		switch {
		case !bok:
			out = append(out, InstrumentDiff{Kind: "counter", Name: n, Base: 0, Cand: cv, Detail: "missing in baseline"})
		case !cok:
			out = append(out, InstrumentDiff{Kind: "counter", Name: n, Base: bv, Cand: 0, Detail: "missing in candidate"})
		case bv != cv:
			out = append(out, InstrumentDiff{Kind: "counter", Name: n, Base: bv, Cand: cv})
		}
	}
	for _, n := range unionHistKeys(b.Histograms, c.Histograms) {
		bh, bok := b.Histograms[n]
		ch, cok := c.Histograms[n]
		switch {
		case !bok:
			out = append(out, InstrumentDiff{Kind: "histogram", Name: n, Base: 0, Cand: ch.Count, Detail: "missing in baseline"})
		case !cok:
			out = append(out, InstrumentDiff{Kind: "histogram", Name: n, Base: bh.Count, Cand: 0, Detail: "missing in candidate"})
		default:
			if detail := histDiff(bh, ch); detail != "" {
				out = append(out, InstrumentDiff{Kind: "histogram", Name: n, Base: bh.Count, Cand: ch.Count, Detail: detail})
			}
		}
	}
	return out
}

// histDiff names the first facet on which two histogram snapshots differ,
// or "" when they are identical.
func histDiff(b, c HistogramSnapshot) string {
	if len(b.Bounds) != len(c.Bounds) {
		return fmt.Sprintf("bucket layout changed: %d bounds became %d", len(b.Bounds), len(c.Bounds))
	}
	for i := range b.Bounds {
		if b.Bounds[i] != c.Bounds[i] {
			return fmt.Sprintf("bound[%d] changed: %d became %d", i, b.Bounds[i], c.Bounds[i])
		}
	}
	for i := range b.Counts {
		if i >= len(c.Counts) || b.Counts[i] != c.Counts[i] {
			cv := int64(0)
			if i < len(c.Counts) {
				cv = c.Counts[i]
			}
			return fmt.Sprintf("bucket[%d] count: %d became %d", i, b.Counts[i], cv)
		}
	}
	if len(c.Counts) > len(b.Counts) {
		return fmt.Sprintf("bucket count grew: %d became %d", len(b.Counts), len(c.Counts))
	}
	if b.Sum != c.Sum {
		return fmt.Sprintf("sum: %d became %d", b.Sum, c.Sum)
	}
	if b.Count != c.Count {
		return fmt.Sprintf("count: %d became %d", b.Count, c.Count)
	}
	return ""
}

func unionKeys(a, b map[string]int64) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func unionHistKeys(a, b map[string]HistogramSnapshot) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
