// Package sim is the shared Monte-Carlo trial runner behind every
// experiment harness. A Trial builds one independent deployment (a
// core.System plus its channel.Environment) and measures it for a fixed
// number of query rounds; a Runner fans a batch of trials across a worker
// pool with context cancellation and first-error propagation.
//
// The determinism contract: a trial's outcome is a pure function of what
// its Build closure constructs and of its DataSeed. Trials share no
// mutable state — bar a paired world's core.LinkTape, whose entries are
// pure functions of the world's seed and round — every seed is derived
// from the experiment root via labeled stats.SubSeed paths (never from
// worker identity, scheduling order or the wall clock), and the Runner
// stores each result at its trial's index. Results are therefore byte-identical whether the batch
// runs on one worker or on runtime.NumCPU().
package sim

import (
	"context"
	"fmt"
	"time"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/obs"
	"witag/internal/stats"
)

// RunStats is one measurement run's outcome.
type RunStats struct {
	BER           float64
	Bits          int
	Errors        int
	DetectionRate float64
	Airtime       time.Duration
}

// Trial is one independent Monte-Carlo measurement, or, with no Rounds,
// any one world an experiment builds (InWorld).
type Trial struct {
	// Build constructs the fully-configured deployment for this trial. It
	// runs on a worker goroutine, so it must derive everything it needs
	// from values captured at construction time and share no mutable
	// state with other trials. It returns a nil environment for a system
	// that borrows its world's layers from a link tape
	// (core.LinkTape.Reader), whose release is the tape's.
	Build func() (*core.System, *channel.Environment, error)
	// Rounds is the number of query rounds Run measures.
	Rounds int
	// DataSeed seeds the random tag payload bits Run sends.
	DataSeed int64
	// ID is the trial's index in its campaign; InWorld stamps it into the
	// built system as the trace ID.
	ID int
	// Labels is the trial's stats.SubSeed label path ("fig5/d=3/run=2").
	// InWorld stamps it into the built system so every trace event the
	// trial emits names the seed tree needed to replay it in isolation.
	Labels string
}

// InWorld is the one owner of every world an experiment builds: it calls
// t.Build, attaches observer o (nil: off) under t's trace identity, runs
// fn and then releases the system and the environment, if Build returned
// one, so the next world built reuses their storage. fn must not keep the
// world.
func InWorld[T any](t Trial, o *obs.Observer, fn func(*core.System, *channel.Environment) (T, error)) (T, error) {
	sys, env, err := t.Build()
	if err != nil {
		var zero T
		return zero, err
	}
	if env != nil {
		defer env.Release()
	}
	defer sys.Release()
	sys.Instrument(o, t.ID, t.Labels)
	return fn(sys, env)
}

// Run measures the trial's world, built and released by InWorld, for
// t.Rounds rounds. Runner.RunTrials passes its campaign's observer as o.
func (t Trial) Run(ctx context.Context, o *obs.Observer) (RunStats, error) {
	return InWorld(t, o, func(sys *core.System, env *channel.Environment) (RunStats, error) {
		return MeasureRun(ctx, sys, env, t.Rounds, t.DataSeed)
	})
}

// MeasureRun performs rounds query rounds against sys, advancing the
// environment (people walking) before each round through sys.Advance, and
// returns aggregate statistics. Random tag data is drawn from seed.
// Cancelling ctx aborts between rounds.
func MeasureRun(ctx context.Context, sys *core.System, env *channel.Environment, rounds int, seed int64) (RunStats, error) {
	rng := stats.NewRNG(seed)
	defer stats.Release(rng)
	var rs RunStats
	detected := 0
	// One payload buffer and one result serve every round: the loop keeps
	// only their tallies, so it allocates nothing per round.
	bits := make([]byte, sys.Spec.DataLen)
	var res core.RoundResult
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return rs, err
		}
		sys.Advance(env)
		stats.FillBits(rng, bits)
		if err := sys.QueryRoundInto(bits, &res); err != nil {
			return rs, err
		}
		rs.Errors += res.BitErrors
		rs.Bits += len(res.TxBits)
		rs.Airtime += res.Airtime
		if res.Detected {
			detected++
		}
	}
	if rs.Bits > 0 {
		rs.BER = float64(rs.Errors) / float64(rs.Bits)
	}
	if rounds > 0 {
		rs.DetectionRate = float64(detected) / float64(rounds)
	}
	return rs, nil
}

// Stream accumulates what Send delivered over one or more calls.
type Stream struct {
	RxBits  []byte // the received bits, one per sent bit
	Rounds  int
	Airtime time.Duration
	BERSum  float64 // sum of the per-round BERs, in round order
}

// Send streams bits to the reader DataLen at a time, one query round per
// slice, advancing the environment before each round through sys.Advance,
// and adds what it received to st. A round whose block ACK is lost ends
// the stream with an error naming it: a stream cannot carry unknown bits.
// Cancelling ctx aborts between rounds.
func (st *Stream) Send(ctx context.Context, sys *core.System, env *channel.Environment, bits []byte) error {
	var res core.RoundResult // reused by every round; its bits are copied out
	for off := 0; off < len(bits); off += sys.Spec.DataLen {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(off+sys.Spec.DataLen, len(bits))
		sys.Advance(env)
		if err := sys.QueryRoundInto(bits[off:end], &res); err != nil {
			return err
		}
		if res.BALost {
			return fmt.Errorf("sim: stream round %d lost its block ACK: its %d bits are unknown", st.Rounds+1, end-off)
		}
		st.RxBits = append(st.RxBits, res.RxBits[:end-off]...)
		st.Airtime += res.Airtime
		st.BERSum += res.BER()
		st.Rounds++
	}
	return nil
}
