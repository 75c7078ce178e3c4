// Package tag models the WiTAG tag hardware: the SPDT antenna switch with
// its quarter-wave stub (the §5.2 phase-flip trick), the low-frequency tag
// clock whose accuracy §7 argues makes WiTAG's power budget feasible, the
// envelope detector + comparator front-end that finds query packets, and
// the power/energy-harvesting budget.
package tag

import (
	"fmt"
)

// SwitchState enumerates the antenna switch positions.
type SwitchState int

const (
	// Open: antenna open-circuited, (ideally) non-reflective.
	Open SwitchState = iota
	// Short: antenna short-circuited, reflective at 0°.
	Short
	// Phase0: reflective through the short stub — 0° reflection.
	Phase0
	// Phase180: reflective through the quarter-wave-longer stub — 180°.
	Phase180
)

// String names the state.
func (s SwitchState) String() string {
	switch s {
	case Open:
		return "open"
	case Short:
		return "short"
	case Phase0:
		return "phase0"
	case Phase180:
		return "phase180"
	default:
		return fmt.Sprintf("SwitchState(%d)", int(s))
	}
}

// AntennaSwitch models the SKY13314-374LF SPDT switch with the two stub
// terminations of the prototype.
type AntennaSwitch struct {
	// Gain is the magnitude of the tag's effective reflection
	// coefficient (folding antenna gain / RCS), applied in reflective
	// states.
	Gain float64
	// OpenLeakage is the residual reflection magnitude in the Open state
	// (a real open-circuited antenna still scatters a little).
	OpenLeakage float64
	// SwitchTimeNs is the settling time of the switch; the SKY13314
	// settles in well under a microsecond.
	SwitchTimeNs float64

	state SwitchState
}

// NewAntennaSwitch returns a switch with the prototype's parameters.
func NewAntennaSwitch(gain float64) *AntennaSwitch {
	return &AntennaSwitch{Gain: gain, OpenLeakage: 0.05, SwitchTimeNs: 500, state: Phase0}
}

// Set moves the switch.
func (a *AntennaSwitch) Set(s SwitchState) error {
	switch s {
	case Open, Short, Phase0, Phase180:
	default:
		return fmt.Errorf("tag: unknown switch state %d", int(s))
	}
	a.state = s
	return nil
}

// ReflectionCoeff returns the complex reflection coefficient of the
// current state: what the channel model multiplies into the tag's
// backscatter path.
func (a *AntennaSwitch) ReflectionCoeff() complex128 {
	switch a.state {
	case Open:
		return complex(a.OpenLeakage*a.Gain, 0)
	case Short, Phase0:
		return complex(a.Gain, 0)
	case Phase180:
		return complex(-a.Gain, 0)
	default:
		return 0
	}
}
