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
// A histogram records into one lane or into Lanes lanes (see laneCells):
// hot instruments written by several workers at once (the phase spans and
// the per-round airtime) use Lanes, and each writer picks its own lane, so
// the atomic adds stop contending. Readers sum the lanes, so every read is
// exactly what a single lane fed the same observations would hold.
type Histogram struct {
	bounds []int64
	// laneCells holds count, sum, then len(bounds)+1 bucket counts (the
	// last is overflow) per lane.
	laneCells
}

// Lanes is the lane count of every laned instrument: the phase spans'
// histograms and the per-round core, fault and traffic counters and
// airtime histogram. It is a power of two, so a writer id maps to its
// lane with a mask.
const Lanes = 8

// cacheLineWords is one cache line in int64 words. Lanes are separated by
// at least this much padding, so no 64-byte line holds words of two lanes
// whatever the alignment of the cell array.
const cacheLineWords = 8

// laneCells is the storage of an instrument of width words per lane, in
// one lane or in Lanes lanes padded apart. Its one lane rule, which every
// laned counter, histogram and Spans view shares: writer id records into
// lane id mod Lanes (id&(Lanes-1), negative ids included), and a
// single-lane instrument folds every id into its one lane.
type laneCells struct {
	cells  []atomic.Int64
	stride int // words from one lane to the next
	mask   int // the lane count minus one: 0 or Lanes-1
}

func newLaneCells(width, lanes int) laneCells {
	if lanes <= 1 {
		return laneCells{cells: make([]atomic.Int64, width), stride: width}
	}
	stride := width + cacheLineWords
	return laneCells{cells: make([]atomic.Int64, Lanes*stride), stride: stride, mask: Lanes - 1}
}

// lane returns the cells of writer id's lane.
func (l *laneCells) lane(id int) []atomic.Int64 {
	return l.cells[(id&l.mask)*l.stride:]
}

// total sums cell word w across the lanes.
func (l *laneCells) total(w int) int64 {
	var n int64
	for base := 0; base < len(l.cells); base += l.stride {
		n += l.cells[base+w].Load()
	}
	return n
}

func newHistogram(bounds []int64, lanes int) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, laneCells: newLaneCells(len(b)+3, lanes)}
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

// ObserveLane records one value in writer id's lane (nil-safe).
func (h *Histogram) ObserveLane(id int, v int64) {
	if h == nil {
		return
	}
	h.observe(id, v)
}

// observe records one value in writer id's lane.
func (h *Histogram) observe(id int, v int64) {
	// Linear scan: instrument histograms have ≤ ~24 buckets, where the
	// scan beats binary search and allocates nothing.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	c := h.lane(id)
	c[2+i].Add(1)
	c[1].Add(v)
	c[0].Add(1)
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
