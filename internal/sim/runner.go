package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"witag/internal/obs"
)

// Runner fans independent work items across a bounded pool of goroutines.
// The zero value runs on runtime.NumCPU() workers.
type Runner struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU().
	Workers int
	// Campaign, when non-nil, is the runner's one instrumentation handle,
	// and purely a sink. Its observer counts items started/done/failed
	// and records each item's wall time (volatile: real time, excluded
	// from the deterministic snapshot view); its progress tally and SSE
	// broker receive live completion updates ("progress" events, one
	// "anomaly" event per failed trial). When the campaign carries a
	// timeline, Each executes in window-sized chunks so the per-window
	// registry deltas stay worker-count deterministic: every trial of a
	// window completes (a pool barrier) before the window's delta is
	// sampled, so the delta is exactly the sum of that window's trials'
	// contributions. With no timeline there is a single chunk. Trial
	// results are identical either way — each trial's work is a pure
	// function of its index and seed labels.
	Campaign *obs.Campaign
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.NumCPU()
}

// Each runs fn(ctx, i) for every i in [0, n) across the pool and blocks
// until all of them return. Indices are handed out by an atomic counter,
// so workers stay busy regardless of per-item cost; fn must write any
// output by index into caller-owned storage so the result is identical
// for every worker count. The first error cancels the context passed to
// the remaining calls and is the error returned.
func (r Runner) Each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	o := r.Campaign.ObserverRef()
	r.Campaign.ProgressStart(n)
	var rtBefore obs.RuntimeStats
	if o != nil {
		rtBefore = obs.ReadRuntimeStats()
	}

	// runRange fans trials [lo, hi) across the pool and blocks until all
	// of them return — one chunk. Returns the first trial error (which
	// also cancels ctx for the whole Each).
	runRange := func(lo, hi int) error {
		workers := r.workers()
		if workers > hi-lo {
			workers = hi - lo
		}
		var (
			next     atomic.Int64
			wg       sync.WaitGroup
			errOnce  sync.Once
			firstErr error
		)
		next.Store(int64(lo))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var busy time.Duration
				for {
					i := int(next.Add(1)) - 1
					if i >= hi || ctx.Err() != nil {
						break
					}
					var start time.Time
					if o != nil {
						o.Runner.TrialsStarted.Inc()
						start = time.Now()
					}
					err := fn(ctx, i)
					if o != nil {
						wall := time.Since(start)
						busy += wall
						m := o.Runner
						if err != nil {
							m.TrialsFailed.Inc()
						} else {
							m.TrialsDone.Inc()
						}
						m.TrialWall.Observe(wall.Milliseconds())
						m.TrialWallUs.Observe(wall.Microseconds())
						o.Trace.Record(obs.Event{Kind: "trial", Trial: i, WallMs: wall.Milliseconds()})
					}
					if err != nil {
						if ctx.Err() == nil {
							r.Campaign.PublishAnomaly("trial_error", err.Error(), i)
						}
						errOnce.Do(func() {
							firstErr = err
							cancel()
						})
						break
					}
					r.Campaign.ProgressDone(1)
				}
				if o != nil && busy > 0 {
					o.Runner.WorkerBusy.Observe(busy.Milliseconds())
				}
			}()
		}
		wg.Wait()
		return firstErr
	}

	var firstErr error
	if tl := r.Campaign.TimelineRef(); tl == nil {
		firstErr = runRange(0, n)
	} else {
		// Chunked execution: each chunk tops up the open logical window,
		// and the barrier between chunks makes the sampled delta exactly
		// that window's trials — deterministic at any worker count.
		tl.BeginSegment()
		for lo := 0; lo < n && firstErr == nil && ctx.Err() == nil; {
			hi := lo + tl.ChunkLimit()
			if hi > n || hi <= lo {
				hi = n
			}
			firstErr = runRange(lo, hi)
			if firstErr == nil && ctx.Err() == nil {
				tl.NoteTrials(lo, hi)
			}
			lo = hi
		}
	}
	if o != nil {
		// Process-global runtime deltas attributed to this campaign. They
		// are exact only while no other campaign allocates in the same
		// process. A CLI runs one campaign per process; where two run at
		// once (TestConcurrentCampaignsIsolated), each campaign's delta
		// also counts its neighbour's allocations.
		d := obs.ReadRuntimeStats().Sub(rtBefore)
		m := o.Runner
		m.AllocBytes.Add(int64(d.AllocBytes))
		m.AllocObjects.Add(int64(d.AllocObjects))
		m.GCCycles.Add(int64(d.GCCycles))
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// RunTrials executes every trial on the pool and returns their stats in
// trial order.
func (r Runner) RunTrials(ctx context.Context, trials []Trial) ([]RunStats, error) {
	return Map(ctx, r, len(trials), func(ctx context.Context, i int) (RunStats, error) {
		return trials[i].Run(ctx, r.Campaign.ObserverRef())
	})
}

// Map runs fn for each index on r's pool and collects the results in
// index order.
func Map[T any](ctx context.Context, r Runner, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := r.Each(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
