package core

import (
	"errors"
	"reflect"
	"testing"

	"witag/internal/channel"
	"witag/internal/obs"
)

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestSystemReleaseStartsCold: a system on the scratch a released system
// emptied must give every round, fault and traffic tally, counter and
// histogram that a system on fresh scratch gives, and so must a reader of
// a tape recorded after another tape's release, on the chunks it left.
// The released system's rounds panic and the released tape's reads fail.
func TestSystemReleaseStartsCold(t *testing.T) {
	const rounds = 300
	build := linkWorld(3, 9)
	world := func(c *systemScratch) *System {
		t.Helper()
		sys, _, err := build()
		if err != nil {
			t.Fatal(err)
		}
		sys.systemScratch = c
		return sys
	}
	// taped returns the first reader of a new tape of the world, on c.
	taped := func(c *systemScratch) (*System, *LinkTape) {
		t.Helper()
		tape := NewLinkTape(func() (*System, *channel.Environment, error) {
			sys, env, err := build()
			if err == nil {
				sys.systemScratch = c
			}
			return sys, env, err
		})
		sys, err := tape.Reader(nil) // the first reader is the build itself
		if err != nil {
			t.Fatal(err)
		}
		return sys, tape
	}
	// run measures sys over its own environment, or over its tape.
	run := func(sys *System) ([]tapeRound, obs.Snapshot) {
		t.Helper()
		camp := obs.NewCampaign("release", obs.CampaignOptions{})
		sys.Instrument(camp.Observer, 0, "release")
		env := sys.Env
		if sys.Link != nil {
			env = nil
		}
		got, err := linkRounds(sys, env, rounds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got, camp.Registry.Snapshot().Deterministic()
	}
	wantRounds, wantMetrics := run(world(new(systemScratch)))
	check := func(what string, sys *System) {
		t.Helper()
		got, metrics := run(sys)
		if !reflect.DeepEqual(got, wantRounds) {
			t.Errorf("%s: the rounds differ from a system on fresh scratch", what)
		}
		if !reflect.DeepEqual(metrics, wantMetrics) {
			t.Errorf("%s: the metrics differ from a system on fresh scratch:\n%+v\nwant\n%+v", what, metrics, wantMetrics)
		}
	}

	old := world(new(systemScratch))
	reader, oldTape := taped(new(systemScratch))
	run(old)
	run(reader)
	dirty := old.systemScratch
	old.Release()
	old.Env.Release()
	oldTape.Release()
	mustPanic(t, "a round on a released system", func() { old.QueryRound(nil) })
	if _, err := reader.QueryRound(nil); !errors.Is(err, errTapeReleased) {
		t.Errorf("a read of a released tape returned %v, want %v", err, errTapeReleased)
	}

	check("reused scratch", world(dirty))
	fresh, _ := taped(new(systemScratch))
	check("a tape recorded after a release", fresh)
}
