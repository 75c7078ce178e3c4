// Package forensics turns a decoded JSONL trace into per-trial analytics
// and rule-based anomaly flags — the read half of the observability loop.
// The write half (obs.Recorder) records what happened; this package
// answers which trial went wrong and why, and names the trial precisely
// enough (trace ID + seed-label path) for experiments.ReplayTrial to
// re-run it in isolation.
//
// Everything here is plain integer/float aggregation over already-frozen
// events: no RNG, no simulation imports, no feedback into anything.
package forensics

import (
	"math"
	"sort"

	"witag/internal/obs"
)

// airtimeBounds bucket per-round airtime in microseconds: 256 µs .. ~2 s
// doubling, the same latency-style layout the live metrics use
// (obs.Exp2Bounds), so forensic percentiles and /metrics quantiles are
// computed over identical bucket grids.
func airtimeBounds() []int64 { return obs.Exp2Bounds(256, 14) }

// TrialStats aggregates every event one trial emitted.
type TrialStats struct {
	Trial  int    `json:"trial"`
	Labels string `json:"labels,omitempty"`

	// Round-level aggregates.
	Rounds        int     `json:"rounds"`
	Detected      int     `json:"detected"`
	TriggerMisses int     `json:"triggerMisses"` // rounds the tag never saw
	BALosses      int     `json:"baLosses"`      // rounds with a lost block ACK
	Bits          int     `json:"bits"`
	BitErrors     int     `json:"bitErrors"`
	BER           float64 `json:"ber"`
	// MaxLostRun is the longest run of consecutive lost rounds (missed
	// trigger or lost block ACK) — the burst-loss signature.
	MaxLostRun int `json:"maxLostRun"`

	// Airtime, in microseconds: exact total plus bucket-quantile
	// percentiles (upper bounds on the true percentiles; exact totals).
	AirtimeUs    int64 `json:"airtimeUs"`
	AirtimeP50Us int64 `json:"airtimeP50Us"`
	AirtimeP90Us int64 `json:"airtimeP90Us"`
	AirtimeP99Us int64 `json:"airtimeP99Us"`

	// SNR extremes over the trial's rounds, in milli-dB.
	SNRMinmDb int64 `json:"snrMinMdb,omitempty"`
	SNRMaxmDb int64 `json:"snrMaxMdb,omitempty"`

	// Transfer/segment aggregates (zero unless the trial ran the link
	// layer).
	Transfers   int `json:"transfers"`
	Delivered   int `json:"delivered"`
	Retries     int `json:"retries"`
	SegmentsOK  int `json:"segmentsOk"`
	SegmentsBad int `json:"segmentsBad"` // erased or frame_error attempts
	// MaxSegmentFailRun is the longest run of consecutive failed segment
	// attempts — the ARQ-stall signature.
	MaxSegmentFailRun int `json:"maxSegmentFailRun"`

	// Injected fault events by outcome name ("trigger_miss", "ba_loss",
	// "brownout").
	Faults map[string]int `json:"faults,omitempty"`

	// Internal run state while scanning (events arrive in emission order
	// within a trial because the recorder is a single ring).
	lostRun, segFailRun int
	airtime             *obs.Histogram
	snrSeen             bool
}

// Analysis is the per-trial decomposition of one trace.
type Analysis struct {
	// Accounting carried over from the trace summary.
	Events    int    `json:"events"`
	Total     uint64 `json:"total"`
	Dropped   uint64 `json:"dropped"`
	Truncated bool   `json:"truncated"`

	// Trials in (Trial, Labels) order.
	Trials []TrialStats `json:"trials"`
}

// Clipped reports whether the underlying trace was incomplete, in which
// case per-trial aggregates are lower bounds, not exact counts.
func (a *Analysis) Clipped() bool { return a.Dropped > 0 || a.Truncated }

// trialKey groups events: distinct label paths under one trace ID stay
// distinct (e.g. witag-bench -experiment all reuses small trial indices
// across experiments in one recorder).
type trialKey struct {
	trial  int
	labels string
}

// Analyze aggregates a decoded trace into per-trial statistics.
func Analyze(tr *obs.Trace) *Analysis {
	a := &Analysis{
		Events:    len(tr.Events),
		Total:     tr.Total,
		Dropped:   tr.Dropped,
		Truncated: tr.Truncated,
	}
	byKey := map[trialKey]*TrialStats{}
	order := []trialKey{}
	get := func(e obs.Event) *TrialStats {
		k := trialKey{e.Trial, e.Labels}
		ts, ok := byKey[k]
		if !ok {
			ts = &TrialStats{
				Trial:   e.Trial,
				Labels:  e.Labels,
				Faults:  map[string]int{},
				airtime: obs.NewHistogram(airtimeBounds()),
			}
			byKey[k] = ts
			order = append(order, k)
		}
		return ts
	}
	for _, e := range tr.Events {
		switch e.Kind {
		case "round":
			ts := get(e)
			ts.Rounds++
			lost := false
			if e.Detected {
				ts.Detected++
			} else {
				ts.TriggerMisses++
				lost = true
			}
			if e.BALost {
				ts.BALosses++
				lost = true
			}
			if lost {
				ts.lostRun++
				if ts.lostRun > ts.MaxLostRun {
					ts.MaxLostRun = ts.lostRun
				}
			} else {
				ts.lostRun = 0
			}
			ts.Bits += e.Bits
			ts.BitErrors += e.BitErrors
			ts.AirtimeUs += e.AirtimeUs
			ts.airtime.Observe(e.AirtimeUs)
			if !ts.snrSeen || e.SNRmDb < ts.SNRMinmDb {
				ts.SNRMinmDb = e.SNRmDb
			}
			if !ts.snrSeen || e.SNRmDb > ts.SNRMaxmDb {
				ts.SNRMaxmDb = e.SNRmDb
			}
			ts.snrSeen = true
		case "segment":
			ts := get(e)
			if e.Outcome == "ok" {
				ts.SegmentsOK++
				ts.segFailRun = 0
			} else {
				ts.SegmentsBad++
				ts.segFailRun++
				if ts.segFailRun > ts.MaxSegmentFailRun {
					ts.MaxSegmentFailRun = ts.segFailRun
				}
			}
		case "transfer":
			ts := get(e)
			ts.Transfers++
			if e.Delivered {
				ts.Delivered++
			}
			ts.Retries += e.Retries
		case "fault":
			ts := get(e)
			ts.Faults[e.Outcome]++
		}
		// Unknown kinds carry nothing to aggregate per trial.
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].trial != order[j].trial {
			return order[i].trial < order[j].trial
		}
		return order[i].labels < order[j].labels
	})
	for _, k := range order {
		ts := byKey[k]
		if ts.Bits > 0 {
			ts.BER = float64(ts.BitErrors) / float64(ts.Bits)
		}
		hs := ts.airtime.Snapshot()
		ts.AirtimeP50Us = hs.Quantile(0.50)
		ts.AirtimeP90Us = hs.Quantile(0.90)
		ts.AirtimeP99Us = hs.Quantile(0.99)
		if len(ts.Faults) == 0 {
			ts.Faults = nil
		}
		a.Trials = append(a.Trials, *ts)
	}
	return a
}

// meanStd returns the mean and population standard deviation of xs.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}
