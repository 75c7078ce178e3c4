// Package experiments reproduces every measured figure and analytical
// section of the paper's evaluation on the simulated substrate, plus the
// ablations DESIGN.md calls out. Each experiment returns a structured
// result with a Render method that prints the same rows/series the paper
// reports; cmd/witag-bench and the repository-root benchmarks drive them.
package experiments

import (
	"fmt"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/fault"
	"witag/internal/traffic"
)

// TagGain is the calibrated effective reflection gain of the prototype tag
// (see DESIGN.md §2: it folds antenna gain, RCS and switch loss; the value
// is set so the simulated Figure 5 reproduces the paper's BER range).
const TagGain = 68

// LoSTestbed builds the Figure 4 line-of-sight lab: client at the origin,
// AP 8 m away, the tag on the line between them at tagX metres from the
// client, wall reflectors approximating the room's Rician multipath, and
// four people walking.
func LoSTestbed(tagX float64, seed int64) (*core.System, *channel.Environment, error) {
	if tagX <= 0 || tagX >= 8 {
		return nil, nil, fmt.Errorf("experiments: tag must sit strictly between client (0 m) and AP (8 m), got %v", tagX)
	}
	env := channel.NewEnvironment(seed)
	env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
	env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
	env.AddReflector(channel.Point{X: -1, Y: 0}, 40)
	env.AddReflector(channel.Point{X: 9, Y: 0}, 40)
	env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
	sys, err := losSystem(env, tagX, seed)
	if err != nil {
		return nil, nil, err
	}
	return sys, env, nil
}

// losSystem builds LoSTestbed(tagX, seed)'s system over env, which it
// only keeps: the testbed's system over another build's environment.
func losSystem(env *channel.Environment, tagX float64, seed int64) (*core.System, error) {
	return core.NewSystem(env,
		channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
		channel.Point{X: tagX, Y: 0.3}, TagGain, seed)
}

// losBuild is a sim.Trial's Build for LoSTestbed(tagX, seed), with setup,
// when non-nil, applied to the built system. A world whose setup fails is
// left to the collector: only sim.InWorld releases worlds.
func losBuild(tagX float64, seed int64, setup func(*core.System) error) func() (*core.System, *channel.Environment, error) {
	return func() (*core.System, *channel.Environment, error) {
		sys, env, err := LoSTestbed(tagX, seed)
		if err == nil && setup != nil {
			err = setup(sys)
		}
		if err != nil {
			return nil, nil, err
		}
		return sys, env, nil
	}
}

// losTagRate is the offered tag rate, in bits per second, of the LoS
// testbed at any tag position. Its query is the one NewSystem shapes: the
// default spec on an open network, at the nominal 50 kHz tick, answered
// at the default block-ACK rate. So the rate is that spec's arithmetic,
// and no world is built.
func losTagRate() (float64, error) {
	spec := core.DefaultQuerySpec()
	if err := spec.ShapeMinTicks(core.ProtocolGrid, 0); err != nil {
		return 0, err
	}
	return spec.TagRateBps(0, core.DefaultBARateMbps)
}

// attachLayers gives sys the injector of the fault.Named preset
// faultName, then the generator of the traffic.Named preset trafficName,
// seeded from seed's leaves "fault" and "traffic". An empty name leaves
// that layer off.
func attachLayers(sys *core.System, faultName, trafficName string, seed func(leaf string) int64) error {
	if faultName != "" {
		p, err := fault.Named(faultName)
		if err != nil {
			return err
		}
		if sys.Faults, err = fault.NewInjector(p, seed("fault")); err != nil {
			return err
		}
	}
	if trafficName != "" {
		p, err := traffic.Named(trafficName)
		if err != nil {
			return err
		}
		if sys.Traffic, err = traffic.NewGenerator(p, seed("traffic")); err != nil {
			return err
		}
	}
	return nil
}

// NLoSLocation selects Figure 4's non-line-of-sight AP placements.
type NLoSLocation byte

const (
	// LocationA puts the AP ≈7 m away behind one wall.
	LocationA NLoSLocation = 'A'
	// LocationB puts the AP ≈17 m away behind metal cabinets, concrete
	// and wooden walls.
	LocationB NLoSLocation = 'B'
)

// NLoSTestbed builds the Figure 6 deployments: the tag sits 1 m from the
// client; the AP is in another room. Students work and move around the
// space for the whole measurement.
func NLoSTestbed(loc NLoSLocation, seed int64) (*core.System, *channel.Environment, error) {
	env := channel.NewEnvironment(seed)
	var ap channel.Point
	switch loc {
	case LocationA:
		ap = channel.Point{X: 7, Y: 0}
		env.AddWall(channel.Point{X: 3.5, Y: -6}, channel.Point{X: 3.5, Y: 6}, 7, "wooden wall + door")
		env.AddReflector(channel.Point{X: 2, Y: 2.5}, 55)
		env.AddReflector(channel.Point{X: 5.5, Y: -2.5}, 55)
		env.AddScatterers(4, 0, -4, 7, 4, 18, 1.2)
	case LocationB:
		ap = channel.Point{X: 17, Y: 0}
		env.AddWall(channel.Point{X: 3.5, Y: -6}, channel.Point{X: 3.5, Y: 6}, 7, "wooden wall")
		env.AddWall(channel.Point{X: 9, Y: -6}, channel.Point{X: 9, Y: 6}, 12, "concrete wall")
		env.AddWall(channel.Point{X: 13, Y: -6}, channel.Point{X: 13, Y: 6}, 10, "metal cabinets")
		env.AddReflector(channel.Point{X: 2, Y: 2.5}, 55)
		env.AddReflector(channel.Point{X: 11, Y: -3}, 70)
		env.AddReflector(channel.Point{X: 15, Y: 3}, 70)
		env.AddScatterers(6, 0, -4, 17, 4, 22, 1.2)
	default:
		return nil, nil, fmt.Errorf("experiments: unknown NLoS location %q", loc)
	}
	sys, err := core.NewSystem(env,
		channel.Point{X: 0, Y: 0}, ap,
		channel.Point{X: 1, Y: 0.3}, TagGain, seed)
	if err != nil {
		return nil, nil, err
	}
	return sys, env, nil
}
