package coding

import (
	"context"
	"testing"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/link"
	"witag/internal/obs"
	"witag/internal/stats"
)

// TestCodedTransferAllocsFlat holds every transfer discipline to a frame
// loop that allocates nothing per frame: a taped transfer must allocate
// exactly as often when it sends more than twice the frames. Every
// subframe of the world is lost, so every frame goes through the whole
// encode, round and decode path and fails its sync check; ARQ sends more
// frames under a larger retry budget, LT and RS under a larger payload,
// whose setup allocates as often as a small one's. Instrumented runs
// count and trace every frame too.
func TestCodedTransferAllocsFlat(t *testing.T) {
	const seed = 41
	world := func() (*core.System, *channel.Environment) {
		sys, env := codingTestbed(t, seed)
		sys.AmbientLossProb = 1
		return sys, env
	}
	tape := core.NewLinkTape(func() (*core.System, *channel.Environment, error) {
		sys, env := world()
		return sys, env, nil
	})
	// reader is a system of the world over the tape's environment.
	reader := func(env *channel.Environment) (*core.System, error) {
		sys, err := codingSystem(env, seed)
		if err == nil {
			sys.AmbientLossProb = 1
		}
		return sys, err
	}
	payloads := map[int][]byte{}
	for _, n := range []int{12, 96} {
		payloads[n] = stats.RandomBytes(stats.NewRNG(stats.SubSeed(seed, "payload")), n)
	}
	ctx := context.Background()
	schemes := []struct {
		name         string
		small, large int
		// send runs one transfer at size n and returns its frame count.
		send func(sys *core.System, n int) (*link.TransferStats, error)
	}{
		{"arq", 20, 100, func(sys *core.System, n int) (*link.TransferStats, error) {
			cc, err := link.NewCodingController(0)
			if err != nil {
				return nil, err
			}
			st, err := link.NewTransferer(sys, nil, link.Policy{RetryBudget: n}, cc, seed).Send(ctx, payloads[96])
			if err != nil {
				return nil, err
			}
			return &st.TransferStats, nil
		}},
		{"fountain", 12, 96, func(sys *core.System, n int) (*link.TransferStats, error) {
			st, err := NewFountainTransferer(sys, nil, DefaultFountainConfig(), seed).Send(ctx, payloads[n])
			if err != nil {
				return nil, err
			}
			return &st.TransferStats, nil
		}},
		{"rs", 12, 96, func(sys *core.System, n int) (*link.TransferStats, error) {
			st, err := NewRSTransferer(sys, nil, DefaultRSConfig(), seed).Send(ctx, payloads[n])
			if err != nil {
				return nil, err
			}
			return &st.TransferStats, nil
		}},
	}
	for _, sc := range schemes {
		for _, instrumented := range []bool{false, true} {
			// One observer for both runs, warmed by a long transfer: its
			// trace ring stays full and its string table holds every
			// outcome either run meets.
			var o *obs.Observer
			if instrumented {
				o = obs.NewObserver(nil, obs.NewRecorder(16))
			}
			run := func(n int) (allocs float64, frames int) {
				allocs = testing.AllocsPerRun(3, func() {
					sys, err := tape.Reader(reader)
					if err != nil {
						t.Fatal(err)
					}
					sys.Instrument(o, 1, "allocs")
					st, err := sc.send(sys, n)
					if err != nil {
						t.Fatal(err)
					}
					if st.Delivered {
						t.Fatalf("%s delivered over a world that loses every subframe", sc.name)
					}
					frames = st.FramesSent
				})
				return allocs, frames
			}
			run(sc.large) // warms o's ring and string table for both
			shortAllocs, shortFrames := run(sc.small)
			longAllocs, longFrames := run(sc.large)
			if longFrames <= 2*shortFrames {
				t.Fatalf("%s: %d and %d frames, want the second more than twice the first", sc.name, shortFrames, longFrames)
			}
			if shortAllocs != longAllocs {
				t.Errorf("%s (instrumented %v): %v allocations over %d frames, %v over %d",
					sc.name, instrumented, shortAllocs, shortFrames, longAllocs, longFrames)
			}
		}
	}
}
