package obs

import "sync/atomic"

// Histogram is a fixed-bucket integer histogram. Bounds are inclusive
// upper limits in ascending order; an observation lands in the first
// bucket whose bound is ≥ the value, or in the implicit overflow bucket.
//
// Integer observations are the deliberate restriction that keeps merges
// and concurrent recording exactly order-independent: int64 adds commute,
// float adds do not. Callers quantise — microseconds of airtime,
// milliseconds of wall time, milli-dB of SNR — rather than observe
// floats.
//
// A histogram records into one or more lanes. Each lane is a full copy of
// the state (count, sum, buckets); readers sum the lanes, so every read is
// exactly what a single lane fed the same observations would hold. Hot
// instruments written by several workers at once (the phase spans) use
// several lanes, padded so that no two share a cache line, and each writer
// picks its own lane; the atomic adds then stop contending.
type Histogram struct {
	bounds []int64
	// cells holds every lane, stride words apart: count, sum, then
	// len(bounds)+1 bucket counts (the last is overflow).
	cells  []atomic.Int64
	stride int
}

// cacheLineWords is one cache line in int64 words. Lanes are separated by
// at least this much padding, so no 64-byte line holds words of two lanes
// whatever the alignment of the cell array.
const cacheLineWords = 8

func newHistogram(bounds []int64, lanes int) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	stride := len(b) + 3
	if lanes > 1 {
		stride += cacheLineWords
	} else {
		lanes = 1
	}
	return &Histogram{
		bounds: b,
		cells:  make([]atomic.Int64, lanes*stride),
		stride: stride,
	}
}

// NewHistogram returns a standalone histogram not bound to any registry,
// for callers that need integer-exact quantiles outside the metrics
// pipeline (forensic airtime percentiles, for one).
func NewHistogram(bounds []int64) *Histogram {
	return newHistogram(bounds, 1)
}

// Snapshot freezes the histogram's current state (zero value for nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.snapshot()
}

// Observe records one value in the first lane (nil-safe).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.observe(0, v)
}

// observe records one value in lane, which must be in range.
func (h *Histogram) observe(lane int, v int64) {
	// Linear scan: instrument histograms have ≤ ~24 buckets, where the
	// scan beats binary search and allocates nothing.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	c := h.cells[lane*h.stride:]
	c[2+i].Add(1)
	c[1].Add(v)
	c[0].Add(1)
}

// total sums cell word w across the lanes.
func (h *Histogram) total(w int) int64 {
	var n int64
	for base := 0; base < len(h.cells); base += h.stride {
		n += h.cells[base+w].Load()
	}
	return n
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.bounds)+1),
		Sum:    h.total(1),
		Count:  h.total(0),
	}
	for i := range s.Counts {
		s.Counts[i] = h.total(2 + i)
	}
	return s
}

// Exp2Bounds returns n bucket bounds doubling from first: first,
// 2·first, 4·first, … — the standard latency-style bucketing for the
// integer histograms in this package.
func Exp2Bounds(first int64, n int) []int64 {
	if first < 1 {
		first = 1
	}
	out := make([]int64, n)
	v := first
	for i := 0; i < n; i++ {
		out[i] = v
		v *= 2
	}
	return out
}
