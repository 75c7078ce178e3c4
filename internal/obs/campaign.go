package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Campaign is one sweep's private telemetry scope: its own registry (and
// therefore its own typed Observer views, span histograms and perf
// deltas), its own trace recorder, progress tally, event broker and
// structured logger. A process runs one campaign; two campaigns in one
// process would still share nothing mutable, so their metrics could not
// smear (TestConcurrentCampaignsIsolated).
//
// Everything a Campaign owns is a sink: attaching one to a runner or a
// system draws no RNG values and feeds nothing back, so science output is
// byte-identical with or without it (TestLoggingDoesNotPerturbResults,
// TestConcurrentCampaignsIsolated).
type Campaign struct {
	// ID names the campaign in its URLs, logs and ledger line ("bench",
	// "sim").
	ID string
	// Registry backs Observer; one per campaign, never shared.
	Registry *Registry
	// Observer is the typed instrument handle threaded into systems,
	// injectors, transferers and runners built for this campaign.
	Observer *Observer
	// Trace is the campaign's bounded event ring (nil: tracing off).
	Trace *Recorder
	// Progress is the campaign's terminal reporter (nil: quiet).
	Progress *Progress
	// Events fans live progress/phase/anomaly snapshots to SSE clients.
	Events *Broker
	// Logger writes the campaign's JSONL log. Never nil: without a log
	// writer it discards below LevelError+1.
	Logger *slog.Logger

	// MinEventInterval rate-limits progress events (default 250 ms).
	MinEventInterval time.Duration

	// timeline, when set, receives per-window registry deltas from
	// every runner scoped to this campaign (see Timeline).
	timeline atomic.Pointer[Timeline]

	startNs atomic.Int64 // wall clock, volatile — status/ledger only
	done    atomic.Int64
	total   atomic.Int64
	lastNs  atomic.Int64 // last progress event, for rate limiting

	mu      sync.Mutex
	state   string // "running", "done", "failed"
	outcome string // error text when failed
}

// CampaignOptions configures NewCampaign. The zero value means: no trace
// ring, no progress reporter, discard logs.
type CampaignOptions struct {
	// TraceCap > 0 attaches a trace recorder with that ring capacity;
	// < 0 attaches one at DefaultTraceCap; 0 means no tracing.
	TraceCap int
	// Progress, when non-nil, receives live terminal updates.
	Progress *Progress
	// LogW, when non-nil, receives the campaign's JSONL log at LogLevel.
	LogW io.Writer
	// LogLevel gates the logger (default slog.LevelInfo).
	LogLevel slog.Leveler
}

// NewCampaign builds a self-contained campaign scope. The returned
// campaign is in state "running" with its start time stamped.
func NewCampaign(id string, opts CampaignOptions) *Campaign {
	reg := NewRegistry()
	var rec *Recorder
	if opts.TraceCap != 0 {
		cap := opts.TraceCap
		if cap < 0 {
			cap = DefaultTraceCap
		}
		rec = NewRecorder(cap)
	}
	c := &Campaign{
		ID:       id,
		Registry: reg,
		Observer: NewObserver(reg, rec),
		Trace:    rec,
		Progress: opts.Progress,
		Events:   NewBroker(),
		state:    "running",
	}
	// Delivery of live events is scheduling-dependent, hence volatile.
	c.Events.Published = reg.Counter("events.published", Volatile)
	c.Events.Dropped = reg.Counter("events.dropped", Volatile)
	if opts.LogW != nil {
		logger := NewLogger(opts.LogW, opts.LogLevel)
		c.Logger = logger.With(slog.String("campaign", id))
	} else {
		c.Logger = slog.New(discardHandler{})
	}
	c.startNs.Store(time.Now().UnixNano())
	return c
}

// discardHandler is a never-enabled slog.Handler (log/slog gained a
// stock one only after this module's Go baseline).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// ProgressStart registers n more expected work items, mirroring
// Progress.Start onto the campaign's own tally (nil-safe).
func (c *Campaign) ProgressStart(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.total.Add(int64(n))
	c.Progress.Start(n)
}

// ProgressDone records n completed items and, at most once per
// MinEventInterval (plus always on completion), publishes a "progress"
// event with the campaign's tally and counters.
func (c *Campaign) ProgressDone(n int) {
	if c == nil {
		return
	}
	done := c.done.Add(int64(n))
	c.Progress.Done(n)
	total := c.total.Load()
	min := c.MinEventInterval
	if min <= 0 {
		min = 250 * time.Millisecond
	}
	now := time.Now().UnixNano()
	last := c.lastNs.Load()
	if now-last < int64(min) && done < total {
		return
	}
	if !c.lastNs.CompareAndSwap(last, now) {
		return // another worker just published
	}
	c.Events.Publish("progress", c.progressSnapshot(done, total, now))
}

// ProgressSnapshot is the payload of a "progress" SSE event.
type ProgressSnapshot struct {
	Campaign string  `json:"campaign"`
	Done     int64   `json:"done"`
	Total    int64   `json:"total"`
	Failed   int64   `json:"failed,omitempty"`
	RatePerS float64 `json:"rate_per_s"` // volatile: wall-clock rate
}

func (c *Campaign) progressSnapshot(done, total int64, nowNs int64) ProgressSnapshot {
	s := ProgressSnapshot{Campaign: c.ID, Done: done, Total: total}
	if c.Observer != nil {
		s.Failed = c.Observer.Runner.TrialsFailed.Value()
	}
	if el := time.Duration(nowNs - c.startNs.Load()).Seconds(); el > 0 {
		s.RatePerS = float64(done) / el
	}
	return s
}

// Anomaly is the payload of an "anomaly" SSE event: something worth a
// human's attention happened mid-campaign (a trial failed, a trace ring
// started dropping). It is advisory — the authoritative record stays in
// the metrics and the trace.
type Anomaly struct {
	Campaign string `json:"campaign"`
	Rule     string `json:"rule"`
	Detail   string `json:"detail"`
	Trial    int    `json:"trial,omitempty"`
}

// PublishAnomaly emits an "anomaly" event and logs it at Warn (nil-safe).
func (c *Campaign) PublishAnomaly(rule, detail string, trial int) {
	if c == nil {
		return
	}
	c.Events.Publish("anomaly", Anomaly{Campaign: c.ID, Rule: rule, Detail: detail, Trial: trial})
	c.Logger.Warn("anomaly", slog.String("rule", rule), slog.String("detail", detail), slog.Int("trial", trial))
}

// ObserverRef returns the campaign's observer, nil for a nil campaign —
// the one handle harnesses, systems and runners are instrumented
// through (nil-safe).
func (c *Campaign) ObserverRef() *Observer {
	if c == nil {
		return nil
	}
	return c.Observer
}

// SetTimeline attaches (or, with nil, detaches) the campaign's timeline.
// Runners scoped to the campaign pick it up on their next Each call;
// like everything a campaign owns it is a pure sink (nil-safe).
func (c *Campaign) SetTimeline(t *Timeline) {
	if c == nil {
		return
	}
	c.timeline.Store(t)
}

// TimelineRef returns the campaign's timeline, nil when none is
// attached (nil-safe).
func (c *Campaign) TimelineRef() *Timeline {
	if c == nil {
		return nil
	}
	return c.timeline.Load()
}

// PublishPhase emits a "phase" event carrying a phase-attribution
// snapshot (the perf package publishes its Report here per experiment).
func (c *Campaign) PublishPhase(v any) {
	if c == nil {
		return
	}
	c.Events.Publish("phase", v)
}

// Finish marks the campaign done (or failed, when err != nil), publishes
// a final "status" event, and closes the event broker so live SSE
// streams terminate. Idempotent; nil-safe.
func (c *Campaign) Finish(err error) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.state != "running" {
		c.mu.Unlock()
		return
	}
	if err != nil {
		c.state = "failed"
		c.outcome = err.Error()
	} else {
		c.state = "done"
	}
	c.mu.Unlock()
	c.Events.Publish("status", c.Status())
	c.Events.Close()
}

// WallMs returns wall milliseconds since the campaign started (volatile;
// status and ledger only).
func (c *Campaign) WallMs() int64 {
	if c == nil {
		return 0
	}
	return (time.Now().UnixNano() - c.startNs.Load()) / int64(time.Millisecond)
}

// CampaignStatus is one campaign's row in /campaigns.
type CampaignStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`             // running | done | failed
	Outcome  string `json:"outcome,omitempty"` // error text when failed
	Done     int64  `json:"done"`
	Total    int64  `json:"total"`
	Failed   int64  `json:"failed,omitempty"`
	WallMs   int64  `json:"wall_ms"` // volatile
	Watchers int    `json:"watchers"`
	Dropped  int64  `json:"events_dropped,omitempty"`
}

// Status returns the campaign's live status row.
func (c *Campaign) Status() CampaignStatus {
	c.mu.Lock()
	state, outcome := c.state, c.outcome
	c.mu.Unlock()
	st := CampaignStatus{
		ID:       c.ID,
		State:    state,
		Outcome:  outcome,
		Done:     c.done.Load(),
		Total:    c.total.Load(),
		WallMs:   c.WallMs(),
		Watchers: c.Events.Subscribers(),
	}
	if c.Observer != nil {
		st.Failed = c.Observer.Runner.TrialsFailed.Value()
	}
	if c.Events != nil {
		st.Dropped = c.Events.Dropped.Value()
	}
	return st
}
