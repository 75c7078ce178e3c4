package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/stats"
)

func TestEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		err := Runner{Workers: workers}.Each(context.Background(), n, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestEachZeroItems(t *testing.T) {
	err := Runner{}.Each(context.Background(), 0, func(context.Context, int) error {
		t.Fatal("fn called for empty batch")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEachFirstErrorPropagatesAndCancels(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := Runner{Workers: 4}.Each(context.Background(), 200, func(ctx context.Context, i int) error {
		if i == 10 {
			return boom
		}
		if ctx.Err() != nil {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Not asserting a count — scheduling-dependent — only that the pool
	// did not deadlock and the first error surfaced.
}

func TestEachParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Runner{Workers: 2}.Each(ctx, 50, func(ctx context.Context, i int) error {
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	got, err := Map(context.Background(), Runner{Workers: 8}, 64, func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("item-%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != fmt.Sprintf("item-%d", i) {
			t.Fatalf("index %d holds %q", i, v)
		}
	}
}

func TestMapErrorReturnsNil(t *testing.T) {
	boom := errors.New("boom")
	got, err := Map(context.Background(), Runner{Workers: 2}, 10, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || got != nil {
		t.Fatalf("got %v, err %v", got, err)
	}
}

// testTrial builds a minimal LoS deployment for trial-level tests.
func testTrial(seed int64, rounds int) Trial {
	return Trial{
		Build: func() (*core.System, *channel.Environment, error) {
			env := channel.NewEnvironment(seed)
			env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
			env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
			sys, err := core.NewSystem(env,
				channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
				channel.Point{X: 2, Y: 0.3}, 68, seed)
			if err != nil {
				return nil, nil, err
			}
			return sys, env, nil
		},
		Rounds:   rounds,
		DataSeed: stats.SubSeed(seed, "data"),
	}
}

func TestRunTrialsDeterministicAcrossWorkerCounts(t *testing.T) {
	trials := func() []Trial {
		var ts []Trial
		for i := 0; i < 6; i++ {
			ts = append(ts, testTrial(stats.SubSeed(9, fmt.Sprintf("run=%d", i)), 30))
		}
		return ts
	}
	serial, err := Runner{Workers: 1}.RunTrials(context.Background(), trials())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 6}.RunTrials(context.Background(), trials())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed results:\n1 worker: %+v\n6 workers: %+v", serial, parallel)
	}
	if serial[0].Bits == 0 || serial[0].Airtime <= 0 {
		t.Fatalf("trial produced no measurement: %+v", serial[0])
	}
}

func TestTrialBuildErrorPropagates(t *testing.T) {
	boom := errors.New("bad build")
	tr := Trial{
		Build:  func() (*core.System, *channel.Environment, error) { return nil, nil, boom },
		Rounds: 10,
	}
	if _, err := (Runner{}).RunTrials(context.Background(), []Trial{tr}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want build error", err)
	}
}

func TestMeasureRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := testTrial(3, 1000)
	sys, env, err := tr.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureRun(ctx, sys, env, 1000, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMeasureRunAllocsFlat pins the measurement loop's allocations to its
// set-up: a run of 1,000 rounds allocates exactly as often as one of 100,
// so no round allocates — detached, and with an observer, a trace ring and
// a bursty fault injector attached.
func TestMeasureRunAllocsFlat(t *testing.T) {
	bursty, err := fault.Named("bursty")
	if err != nil {
		t.Fatal(err)
	}
	for _, instrumented := range []bool{false, true} {
		sys, env, err := testTrial(5, 0).Build()
		if err != nil {
			t.Fatal(err)
		}
		if instrumented {
			sys.Instrument(obs.NewObserver(nil, obs.NewRecorder(256)), 1, "allocs")
			if sys.Faults, err = fault.NewInjector(bursty, 8); err != nil {
				t.Fatal(err)
			}
		}
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := MeasureRun(context.Background(), sys, env, rounds, 4); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(100), allocs(1000); short != long {
			t.Fatalf("instrumented %v: MeasureRun allocates %v times over 100 rounds and %v over 1,000", instrumented, short, long)
		}
	}
}

// TestStreamSendMatchesRoundLoop: Stream.Send is the Advance →
// QueryRound → append loop, slice by slice, with a short last slice, and
// a second call adds to the first.
func TestStreamSendMatchesRoundLoop(t *testing.T) {
	sys, env, err := testTrial(5, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	bits := stats.RandomBits(stats.NewRNG(6), 2*sys.Spec.DataLen+7)
	var got Stream
	for range 2 {
		if err := got.Send(context.Background(), sys, env, bits); err != nil {
			t.Fatal(err)
		}
	}

	sys, env, _ = testTrial(5, 0).Build()
	var want Stream
	for range 2 {
		for off := 0; off < len(bits); off += sys.Spec.DataLen {
			end := min(off+sys.Spec.DataLen, len(bits))
			env.Advance(channel.RoundStepS)
			res, err := sys.QueryRound(bits[off:end])
			if err != nil {
				t.Fatal(err)
			}
			want.RxBits = append(want.RxBits, res.RxBits[:end-off]...)
			want.Airtime += res.Airtime
			want.BERSum += res.BER()
			want.Rounds++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Send = %+v\nround loop = %+v", got, want)
	}
	if got.Rounds != 6 || len(got.RxBits) != 2*len(bits) {
		t.Fatalf("2×%d bits took %d rounds and came back as %d", len(bits), got.Rounds, len(got.RxBits))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := new(Stream).Send(ctx, sys, env, bits); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamSendRefusesLostBlockAck: a round whose block ACK never
// reached the client has no bits to deliver, so Send returns an error
// naming that round — the stream's fourth here, after three clean ones —
// rather than slicing the round's absent bits.
func TestStreamSendRefusesLostBlockAck(t *testing.T) {
	sys, env, err := testTrial(5, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	bits := stats.RandomBits(stats.NewRNG(6), 2*sys.Spec.DataLen+7)
	var st Stream
	if err := st.Send(context.Background(), sys, env, bits); err != nil {
		t.Fatal(err)
	}
	if sys.Faults, err = fault.NewInjector(fault.Profile{BALossProb: 1}, 8); err != nil {
		t.Fatal(err)
	}
	before := st
	err = st.Send(context.Background(), sys, env, bits)
	if err == nil || !strings.Contains(err.Error(), "stream round 4 lost its block ACK") {
		t.Fatalf("err = %v, want the lost block ACK of stream round 4", err)
	}
	if !reflect.DeepEqual(st, before) {
		t.Fatalf("the lost round changed the stream: %+v, was %+v", st, before)
	}
}
