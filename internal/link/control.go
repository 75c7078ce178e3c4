package link

import (
	"fmt"
	"sync"

	"witag/internal/core"
)

// Adaptive coding control: where a Minstrel-style rate controller hunts
// the *fastest* MCS that still delivers, this controller hunts the
// *lightest* protection that still gets frames through. It walks a ladder of coding levels —
// FEC off → FEC on → deeper interleaving → shorter segments — reacting
// AIMD-style to per-frame CRC verdicts: escalation is immediate and one
// rung at a time when the smoothed frame-error rate crosses EscalateFER
// (the multiplicative "back off" reaction), relaxation is one rung only
// after RelaxAfter consecutive clean frames with the smoothed FER below
// RelaxFER (the cautious additive recovery).

// Level is one rung of the protection ladder.
type Level struct {
	// Codec is the framing applied to every frame at this level.
	Codec core.Codec
	// SegBytes caps the chunk carried per frame. Shorter segments cost
	// header/CRC overhead but shrink the per-frame error target and the
	// retransmission unit.
	SegBytes int
}

// DefaultLadder is the protection ladder used by NewCodingController,
// lightest first. Interleave depths are chosen against the burst lengths
// the fault profiles produce (mean bad-state dwell 4–12 subframes): depth
// ≥ 2× dwell spreads a burst to ≤1 error per SECDED codeword.
func DefaultLadder() []Level { return appendDefaultLadder(nil) }

// appendDefaultLadder appends DefaultLadder's rungs to dst.
func appendDefaultLadder(dst []Level) []Level {
	return append(dst,
		Level{Codec: core.Codec{}, SegBytes: 48},
		Level{Codec: core.Codec{FEC: true}, SegBytes: 32},
		Level{Codec: core.Codec{FEC: true, InterleaveDepth: 8}, SegBytes: 24},
		Level{Codec: core.Codec{FEC: true, InterleaveDepth: 16}, SegBytes: 16},
		Level{Codec: core.Codec{FEC: true, InterleaveDepth: 32}, SegBytes: 8},
	)
}

// CodingController adapts the coding level from frame verdicts.
type CodingController struct {
	Ladder []Level
	// Alpha is the EWMA smoothing factor for the frame-error rate.
	Alpha float64
	// EscalateFER escalates one rung when the smoothed FER exceeds it.
	EscalateFER float64
	// RelaxFER gates relaxation: the smoothed FER must sit below it.
	RelaxFER float64
	// RelaxAfter is the consecutive clean frames required to relax.
	RelaxAfter int

	level  int
	ewma   float64
	seeded bool
	okRun  int
	// reusable marks a controller a constructor made: the Release of the
	// transferer it was given hands it to the next one they make.
	reusable bool
}

// controllers holds the controllers of released transferers.
var controllers sync.Pool

// newController returns a released transferer's controller, or a new
// one, with an empty ladder that keeps its storage.
func newController() *CodingController {
	cc, _ := controllers.Get().(*CodingController)
	if cc == nil {
		cc = new(CodingController)
	}
	*cc = CodingController{Ladder: cc.Ladder[:0], reusable: true}
	return cc
}

// release hands cc to the next controller a constructor makes, if a
// constructor made it and it is not released yet.
func (cc *CodingController) release() {
	if cc.reusable {
		cc.reusable = false
		controllers.Put(cc)
	}
}

// NewCodingController returns a controller on the default ladder,
// starting at the given rung.
func NewCodingController(startLevel int) (*CodingController, error) {
	cc := newController()
	cc.Ladder = appendDefaultLadder(cc.Ladder)
	cc.Alpha, cc.EscalateFER, cc.RelaxFER, cc.RelaxAfter = 0.3, 0.35, 0.05, 8
	cc.level = startLevel
	if startLevel < 0 || startLevel >= len(cc.Ladder) {
		return nil, fmt.Errorf("link: start level %d outside ladder [0,%d)", startLevel, len(cc.Ladder))
	}
	return cc, nil
}

// NewFixedController returns a degenerate controller pinned to a single
// level — the no-adaptation baseline for robustness experiments.
func NewFixedController(lvl Level) *CodingController {
	cc := newController()
	cc.Ladder = append(cc.Ladder, lvl)
	cc.Alpha = 0.3
	cc.EscalateFER = 2 // unreachable
	cc.RelaxFER = -1
	cc.RelaxAfter = 1 << 30
	return cc
}

// Level returns the current rung's coding parameters.
func (cc *CodingController) Level() Level { return cc.Ladder[cc.level] }

// Index returns the current rung (0 = lightest).
func (cc *CodingController) Index() int { return cc.level }

// Observe feeds one frame's CRC verdict. Round erasures (missed trigger,
// lost block ACK) must NOT be fed here — they say nothing about coding.
func (cc *CodingController) Observe(frameOK bool) {
	x := 0.0
	if !frameOK {
		x = 1.0
	}
	if !cc.seeded {
		cc.ewma = x
		cc.seeded = true
	} else {
		cc.ewma = cc.Alpha*x + (1-cc.Alpha)*cc.ewma
	}
	if frameOK {
		cc.okRun++
	} else {
		cc.okRun = 0
	}
	if cc.ewma > cc.EscalateFER && cc.level < len(cc.Ladder)-1 {
		cc.level++
		// Re-seed mid-band so a single rung absorbs one burst of failures
		// instead of the stale EWMA escalating straight to the top.
		cc.ewma = (cc.EscalateFER + cc.RelaxFER) / 2
		cc.okRun = 0
	} else if cc.okRun >= cc.RelaxAfter && cc.ewma < cc.RelaxFER && cc.level > 0 {
		cc.level--
		cc.okRun = 0
	}
}
