package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over [Lo, Hi). Samples outside the
// range are clamped into the first or last bin so no observation is lost.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	total  uint64
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bin, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: invalid histogram range [%v,%v)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	bin := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
	h.total++
}

// Total reports the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Render returns a textual bar plot of the histogram.
func (h *Histogram) Render(width int, label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Histogram %s (n=%d)\n", label, h.total)
	maxCount := uint64(1)
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		bar := int(math.Round(float64(c) / float64(maxCount) * float64(width)))
		fmt.Fprintf(&b, "  %10.4g %8d |%s\n", h.BinCenter(i), c, strings.Repeat("#", bar))
	}
	return b.String()
}
