package mac

import (
	"fmt"
	"math/rand"
	"time"

	"witag/internal/dot11"
	"witag/internal/stats"
)

// Contention-based channel access (DCF/EDCA). The WiTAG client contends
// like any station; contention time is part of the per-round overhead that
// caps the tag's data rate.

// Contender models one station's backoff. The querier's exchanges never
// collide in the model, so its contention window stays at CWmin.
type Contender struct {
	rng *rand.Rand

	lastSlots int
	lastBusy  int
}

// NewContender returns a best-effort access contender (CWmin 15).
func NewContender(rng *rand.Rand) *Contender {
	return &Contender{rng: rng}
}

// Release ends the contender's backoff stream (stats.Release): a later
// AccessDelay panics.
func (c *Contender) Release() { stats.Release(c.rng) }

// AccessDelay samples the channel-access delay for one transmission
// attempt: DIFS plus a uniform backoff in [0, CW] slots. busyProb models
// the probability each slot is occupied by other traffic, which freezes
// the countdown and extends the wait by a typical frame exchange.
func (c *Contender) AccessDelay(busyProb float64, otherFrame time.Duration) (time.Duration, error) {
	if busyProb < 0 || busyProb >= 1 {
		return 0, fmt.Errorf("mac: busy probability %v outside [0,1)", busyProb)
	}
	slots := c.rng.Intn(dot11.CWmin + 1)
	d := dot11.DIFS
	busy := 0
	for i := 0; i < slots; i++ {
		if busyProb > 0 && c.rng.Float64() < busyProb {
			d += otherFrame + dot11.DIFS
			busy++
		}
		d += dot11.SlotTime
	}
	c.lastSlots, c.lastBusy = slots, busy
	return d, nil
}

// LastSlots reports the backoff slots counted down by the most recent
// AccessDelay, and how many of them were frozen by other traffic — the
// observability layer's window into contention without an extra RNG draw.
func (c *Contender) LastSlots() (slots, busy int) { return c.lastSlots, c.lastBusy }
