package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function built from observed
// samples. The zero value is unusable; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input slice is copied.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len reports the number of samples behind the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the smallest sample x such that P(X <= x) >= q, for
// q in (0, 1]. Quantile(0) returns the minimum sample.
func (c *CDF) Quantile(q float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	if q == 0 {
		return c.sorted[0], nil
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx], nil
}

// Render returns a fixed-width textual plot of the CDF, used by the bench
// harness to reproduce the paper's CDF figures in a terminal.
func (c *CDF) Render(width int, label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CDF %s (n=%d)\n", label, c.Len())
	if c.Len() == 0 {
		return b.String()
	}
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00} {
		v, _ := c.Quantile(q)
		bar := int(q * float64(width))
		fmt.Fprintf(&b, "  p%-5.3g %10.5f |%s\n", q*100, v, strings.Repeat("#", bar))
	}
	return b.String()
}
