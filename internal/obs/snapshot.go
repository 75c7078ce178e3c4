package obs

import "math"

// Snapshot is a point-in-time copy of a registry. It is plain data:
// JSON-marshallable (map keys marshal sorted, so the encoding is stable),
// mergeable across registries, and diffable across time.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Volatile names the instruments excluded from Deterministic().
	Volatile map[string]bool `json:"volatile,omitempty"`
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is overflow
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) of the
// observed values: the inclusive upper bound of the first bucket whose
// cumulative count reaches q·Count. Values in the overflow bucket have no
// upper bound, so the largest finite bound is returned for them (a known
// under-estimate; callers sizing buckets per Exp2Bounds rarely overflow).
// Returns 0 on an empty histogram. Integer bounds make the result exact
// and deterministic — no interpolation, no floating-point accumulation.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Counts) == 0 {
		return 0
	}
	rank := NearestRank(q, h.Count)
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// NearestRank returns the 1-based rank of the q-quantile (clamped to
// [0, 1]) in a population of count observations, under the nearest-rank
// definition: the smallest value with at least q·count observations at or
// below it. It is the single quantile-rank rule in the repository —
// HistogramSnapshot.Quantile and the forensic airtime percentiles both
// resolve ranks through it, so live /metrics quantiles, trace analytics
// and gate perf ratios can never disagree on what "p99" means.
func NearestRank(q float64, count int64) int64 {
	if count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	return rank
}

func emptySnapshot() Snapshot {
	return Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Volatile:   map[string]bool{},
	}
}

// Deterministic returns the snapshot restricted to instruments whose
// values are a pure function of the simulated work — every volatile
// (wall-clock or scheduling-dependent) instrument is dropped. This is the view the determinism suite requires to be
// identical for 1 and NumCPU workers.
func (s Snapshot) Deterministic() Snapshot {
	out := emptySnapshot()
	out.Volatile = nil
	for n, v := range s.Counters {
		if !s.Volatile[n] {
			out.Counters[n] = v
		}
	}
	for n, h := range s.Histograms {
		if !s.Volatile[n] {
			out.Histograms[n] = h
		}
	}
	return out
}

// Delta returns s minus prev for counters and histograms — the activity
// between two snapshots of the same registry. Instruments absent from
// prev are carried over whole.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := emptySnapshot()
	for n, v := range s.Counters {
		out.Counters[n] = v - prev.Counters[n]
	}
	for n, h := range s.Histograms {
		p, ok := prev.Histograms[n]
		if !ok || len(p.Counts) != len(h.Counts) {
			out.Histograms[n] = h
			continue
		}
		d := HistogramSnapshot{
			Bounds: append([]int64(nil), h.Bounds...),
			Counts: make([]int64, len(h.Counts)),
			Sum:    h.Sum - p.Sum,
			Count:  h.Count - p.Count,
		}
		for i := range h.Counts {
			d.Counts[i] = h.Counts[i] - p.Counts[i]
		}
		out.Histograms[n] = d
	}
	for n := range s.Volatile {
		out.Volatile[n] = true
	}
	return out
}
