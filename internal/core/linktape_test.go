package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"witag/internal/channel"
	"witag/internal/dot11"
	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/stats"
	"witag/internal/tag"
)

// linkWorld returns a build of the Figure 4 LoS room with the tag at tagX
// and a fault injector, every stream seeded from seed: the same world at
// every call.
func linkWorld(tagX float64, seed int64) func() (*System, *channel.Environment, error) {
	return func() (*System, *channel.Environment, error) {
		env := channel.NewEnvironment(seed)
		env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
		env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
		env.AddReflector(channel.Point{X: -1, Y: 0}, 40)
		env.AddReflector(channel.Point{X: 9, Y: 0}, 40)
		env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
		sys, err := NewSystem(env,
			channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
			channel.Point{X: tagX, Y: 0.3}, 68, seed)
		if err != nil {
			return nil, nil, err
		}
		p, err := fault.Named("bursty")
		if err != nil {
			return nil, nil, err
		}
		if sys.Faults, err = fault.NewInjector(p, stats.SubSeed(seed, "fault")); err != nil {
			return nil, nil, err
		}
		return sys, env, nil
	}
}

// tapeRound is what a round reports, with its floats as raw bits so the
// comparison is bit for bit.
type tapeRound struct {
	Detected, BALost bool
	BitErrors        int
	RxBits           []byte
	SNR, Distortion  uint64
}

// linkRounds runs rounds query rounds on sys, advancing env before each
// one when env is non-nil, and yields to the scheduler at a random pace
// drawn from pace (nil: never).
func linkRounds(sys *System, env *channel.Environment, rounds int, pace *rand.Rand) ([]tapeRound, error) {
	rng := stats.NewRNG(5)
	out := make([]tapeRound, 0, rounds)
	for r := 0; r < rounds; r++ {
		if env != nil {
			env.Advance(channel.RoundStepS)
		}
		res, err := sys.QueryRound(stats.RandomBits(rng, sys.Spec.DataLen))
		if err != nil {
			return nil, err
		}
		out = append(out, tapeRound{res.Detected, res.BALost, res.BitErrors, res.RxBits,
			math.Float64bits(res.SNRDb), math.Float64bits(res.DistortionDb)})
		for pace != nil && pace.Intn(3) == 0 {
			runtime.Gosched()
		}
	}
	return out, nil
}

// TestLinkTapeConcurrentReadersMatchLocal has several systems of one world
// read one tape concurrently, each at its own random pace, and requires
// every round of every reader to equal a system that evaluates the link
// over its own environment, bit for bit. The tape must evaluate each
// round exactly once, so the readers' work counters sum to the local
// system's.
func TestLinkTapeConcurrentReadersMatchLocal(t *testing.T) {
	const rounds, readers = 700, 6
	build := linkWorld(2, 31)
	local, env, err := build()
	if err != nil {
		t.Fatal(err)
	}
	localCamp := obs.NewCampaign("local", obs.CampaignOptions{})
	local.Instrument(localCamp.Observer, 0, "local")
	want, err := linkRounds(local, env, rounds, nil)
	if err != nil {
		t.Fatal(err)
	}

	tape := NewLinkTape(build)
	camp := obs.NewCampaign("taped", obs.CampaignOptions{})
	got := make([][]tapeRound, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := range readers {
		sys, _, err := build()
		if err != nil {
			t.Fatal(err)
		}
		sys.Link = tape
		sys.Instrument(camp.Observer, i, "taped")
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Readers stop at different rounds, so the last rounds are
			// evaluated by whichever reader gets that far.
			got[i], errs[i] = linkRounds(sys, nil, rounds-37*i, rand.New(rand.NewSource(int64(i))))
		}()
	}
	wg.Wait()
	for i := range readers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[:len(got[i])]) {
			for r := range got[i] {
				if !reflect.DeepEqual(got[i][r], want[r]) {
					t.Fatalf("reader %d, round %d: tape gave %+v, local evaluation %+v", i, r, got[i][r], want[r])
				}
			}
		}
	}
	if n := tape.n; n != rounds {
		t.Fatalf("tape recorded %d rounds, want %d", n, rounds)
	}
	w, g := localCamp.Registry.Snapshot().Counters, camp.Registry.Snapshot().Counters
	for _, c := range []string{"core.channel_path_evals", "core.decode_model_evals"} {
		if w[c] == 0 || g[c] != w[c] {
			t.Errorf("%s: readers counted %d, the local system %d", c, g[c], w[c])
		}
	}
}

// TestLinkTapeRejectsOtherLink: a system whose MCS, positions or tag
// coefficients differ from its tape's gets an error, never the tape's
// link, and a failed build reaches every reader.
func TestLinkTapeRejectsOtherLink(t *testing.T) {
	mcs4, err := dot11.HTMCS(4)
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]func(s *System){
		"mcs":     func(s *System) { s.Spec.MCS = mcs4 },
		"client":  func(s *System) { s.ClientPos.X += 0.1 },
		"ap":      func(s *System) { s.APPos.Y = -0.2 },
		"tag":     func(s *System) { s.TagPos.X = 3 },
		"gain":    func(s *System) { s.Tag.Switch.Gain *= 1.01 },
		"excess":  func(s *System) { s.Tag.GroupDelayNs += 0.5 },
		"flip":    func(s *System) { s.Tag.FlipState = tag.Open },
		"control": func(s *System) {},
	}
	for name, edit := range edits {
		tape := NewLinkTape(linkWorld(2, 8))
		sys, _, err := linkWorld(2, 8)()
		if err != nil {
			t.Fatal(err)
		}
		edit(sys)
		sys.Link = tape
		_, err = sys.QueryRound(nil)
		if name == "control" {
			if err != nil {
				t.Fatalf("control: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "differs from its tape") {
			t.Errorf("%s: QueryRound returned %v, want a tape mismatch", name, err)
		}
	}

	sys, _, err := linkWorld(2, 8)()
	if err != nil {
		t.Fatal(err)
	}
	failing := NewLinkTape(func() (*System, *channel.Environment, error) { return nil, nil, nil })
	sys.Link = failing
	for range 2 {
		if _, err := sys.QueryRound(nil); err == nil || !strings.Contains(err.Error(), "link tape build") {
			t.Errorf("failed build: QueryRound returned %v", err)
		}
	}
}
