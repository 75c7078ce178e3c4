package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Timeline turns a registry's cumulative counters into a bounded ring of
// per-window deltas — the time axis the rest of the obs layer lacks. It
// carries two window streams over one registry:
//
//   - Logical windows close every WindowTrials completed trials, sampled
//     from sim.Runner's completion stream. The runner executes trials in
//     window-sized chunks and samples only at chunk barriers, so a
//     window's delta is exactly the sum of its own trials' contributions
//     — a pure function of the work, independent of worker count and
//     scheduling. Logical deltas are stored through
//     Snapshot.Deterministic(), so they hold no wall-clock instrument at
//     all and the exported TL_*.jsonl bytes are identical at 1 and
//     NumCPU workers (TestTimelineWindowsIdenticalAcrossWorkerCounts).
//
//   - Wall windows are taken by an optional interval sampler goroutine.
//     They keep the full delta (volatile wall/alloc instruments
//     included) plus real timestamps, and are marked Kind "wall" so
//     every deterministic consumer excludes them, exactly as Volatile
//     instruments are excluded from deterministic snapshots.
//
// A Timeline is a pure sink: it draws no RNG values and feeds nothing
// back into trials, so science output is byte-identical with a timeline
// attached or not (TestTimelineDoesNotPerturbResults).
type Timeline struct {
	reg *Registry
	cfg TimelineConfig

	mu       sync.Mutex
	baseLog  Snapshot // registry state when the last logical window closed
	baseWall Snapshot // registry state at the last wall sample
	done     int64    // cumulative trials noted complete
	winStart int64    // value of done when the open window began
	segment  int      // current Each-call segment (1-based)
	spans    []TrialSpan
	logSeq   int
	wallSeq  int

	buf     []TimelineWindow // ring, wraps at cfg.Cap
	next    int
	total   int
	dropped int

	startNs    int64 // wall sampler epoch
	lastWallNs int64
}

// Window kinds. Logical windows are deterministic; wall windows are
// volatile by construction.
const (
	WindowLogical = "logical"
	WindowWall    = "wall"
)

// DefaultTimelineWindow is the logical window width (trials per window)
// when TimelineConfig.WindowTrials is zero.
const DefaultTimelineWindow = 64

// DefaultTimelineCap bounds the window ring when TimelineConfig.Cap is
// zero. At ~1–2 KB per retained window this is a few MB fully loaded.
const DefaultTimelineCap = 1024

// TimelineConfig sizes a timeline. The zero value is usable.
type TimelineConfig struct {
	// WindowTrials is the logical window width: a window closes every
	// this many completed trials (<= 0: DefaultTimelineWindow).
	WindowTrials int
	// Cap bounds the ring of retained windows (<= 0: DefaultTimelineCap).
	Cap int
}

func (c TimelineConfig) windowTrials() int {
	if c.WindowTrials <= 0 {
		return DefaultTimelineWindow
	}
	return c.WindowTrials
}

func (c TimelineConfig) ringCap() int {
	if c.Cap <= 0 {
		return DefaultTimelineCap
	}
	return c.Cap
}

// TrialSpan names a contiguous run of trial indices inside one window:
// trials [Lo, Hi) of the Seg-th Runner.Each call feeding this timeline.
// Spans are what lets forensics map an anomalous trial index back onto
// the windows that contain it even when trial IDs restart at 0 across
// successive Each calls.
type TrialSpan struct {
	Seg int `json:"seg"`
	Lo  int `json:"lo"`
	Hi  int `json:"hi"`
}

// Contains reports whether the span covers trial index i of segment seg
// (seg <= 0 matches any segment — trace events don't carry the segment,
// so per-trial alignment is by index across all segments).
func (s TrialSpan) Contains(seg, i int) bool {
	return (seg <= 0 || s.Seg == seg) && i >= s.Lo && i < s.Hi
}

// TimelineWindow is one closed window: the registry's activity between
// two points on the campaign's logical (or wall) clock.
type TimelineWindow struct {
	// Kind is WindowLogical or WindowWall.
	Kind string `json:"kind"`
	// Seq numbers windows per kind, from 0.
	Seq int `json:"seq"`
	// DoneStart/DoneEnd bound the window on the logical clock: the
	// cumulative completed-trial count when the window opened and
	// closed. Wall windows carry the counts too (read at sample time)
	// so the two streams can be aligned.
	DoneStart int64 `json:"done_start"`
	DoneEnd   int64 `json:"done_end"`
	// Spans lists the trial-index ranges the window covers (logical
	// windows only).
	Spans []TrialSpan `json:"spans,omitempty"`
	// WallMs/DurMs stamp wall windows: ms since the timeline was
	// created, and the window's own duration. Always zero on logical
	// windows — wall time never enters the deterministic stream.
	WallMs int64 `json:"wall_ms,omitempty"`
	DurMs  int64 `json:"dur_ms,omitempty"`
	// Delta is the registry activity inside the window. Logical
	// windows store the Deterministic() view; wall windows keep
	// volatile instruments.
	Delta Snapshot `json:"delta"`
}

// NewTimeline attaches a timeline to reg, snapshotting it now as the
// baseline so deltas never include activity from before the attach.
func NewTimeline(reg *Registry, cfg TimelineConfig) *Timeline {
	base := reg.Snapshot()
	return &Timeline{
		reg:      reg,
		cfg:      cfg,
		baseLog:  base,
		baseWall: base,
		startNs:  time.Now().UnixNano(),
	}
}

// Config returns the effective (defaulted) configuration.
func (t *Timeline) Config() TimelineConfig {
	return TimelineConfig{WindowTrials: t.cfg.windowTrials(), Cap: t.cfg.ringCap()}
}

// BeginSegment starts a new trial-index segment — sim.Runner calls it
// once per Each invocation, so spans from successive sweeps with
// restarting indices stay distinguishable (nil-safe).
func (t *Timeline) BeginSegment() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.segment++
	t.mu.Unlock()
}

// ChunkLimit returns how many more trials the open logical window
// accepts — the barrier size the runner must use for its next chunk.
// Always >= 1 (a full window closes before the limit is re-read).
func (t *Timeline) ChunkLimit() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cfg.windowTrials() - int(t.done-t.winStart)
}

// NoteTrials records that trials [lo, hi) of the current segment have
// all completed (the runner's chunk barrier guarantees their counter
// contributions are fully visible). Closes the logical window whenever
// it reaches WindowTrials (nil-safe).
func (t *Timeline) NoteTrials(lo, hi int) {
	if t == nil || hi <= lo {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans)
	if n > 0 && t.spans[n-1].Seg == t.segment && t.spans[n-1].Hi == lo {
		t.spans[n-1].Hi = hi
	} else {
		t.spans = append(t.spans, TrialSpan{Seg: t.segment, Lo: lo, Hi: hi})
	}
	t.done += int64(hi - lo)
	if t.done-t.winStart >= int64(t.cfg.windowTrials()) {
		t.closeLogicalLocked()
	}
}

// Flush closes the open partial logical window, if any — call it once
// the campaign's trial work is finished, before exporting (nil-safe).
func (t *Timeline) Flush() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done > t.winStart {
		t.closeLogicalLocked()
	}
}

func (t *Timeline) closeLogicalLocked() {
	snap := t.reg.Snapshot()
	w := TimelineWindow{
		Kind:      WindowLogical,
		Seq:       t.logSeq,
		DoneStart: t.winStart,
		DoneEnd:   t.done,
		Spans:     t.spans,
		Delta:     snap.Delta(t.baseLog).Deterministic(),
	}
	t.logSeq++
	t.baseLog = snap
	t.winStart = t.done
	t.spans = nil
	t.appendLocked(w)
}

// SampleWall closes one wall window now: the full registry delta since
// the previous wall sample, stamped with real time. Safe to call
// concurrently with trial execution — wall windows are volatile, so the
// mid-chunk smear they capture is exactly what they exist to show.
func (t *Timeline) SampleWall() {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := t.reg.Snapshot()
	last := t.lastWallNs
	if last == 0 {
		last = t.startNs
	}
	w := TimelineWindow{
		Kind:      WindowWall,
		Seq:       t.wallSeq,
		DoneStart: t.winStart,
		DoneEnd:   t.done,
		WallMs:    (now - t.startNs) / int64(time.Millisecond),
		DurMs:     (now - last) / int64(time.Millisecond),
		Delta:     snap.Delta(t.baseWall),
	}
	t.wallSeq++
	t.baseWall = snap
	t.lastWallNs = now
	t.appendLocked(w)
}

// StartWallSampler closes a wall window every interval until the
// returned stop function is called (idempotent). interval <= 0 is a
// no-op sampler.
func (t *Timeline) StartWallSampler(interval time.Duration) (stop func()) {
	if t == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t.SampleWall()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

func (t *Timeline) appendLocked(w TimelineWindow) {
	cap := t.cfg.ringCap()
	if len(t.buf) < cap {
		t.buf = append(t.buf, w)
	} else {
		t.buf[t.next] = w
		t.next = (t.next + 1) % cap
		t.dropped++
	}
	t.total++
}

// Windows returns the retained windows, oldest first.
func (t *Timeline) Windows() []TimelineWindow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TimelineWindow, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Total returns how many windows ever closed; Dropped how many the ring
// overwrote.
func (t *Timeline) Total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

func (t *Timeline) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// TimelineSummary is the trailing record of a timeline JSONL export,
// mirroring TraceSummary: it makes a clipped ring self-describing and
// its absence marks a file truncated mid-write.
type TimelineSummary struct {
	Kind         string `json:"kind"` // always "tl_summary"
	Retained     int    `json:"retained"`
	Total        int    `json:"total"`
	Dropped      int    `json:"dropped"`
	WindowTrials int    `json:"window_trials"`
	// Error is the recording run's failure; empty when it passed.
	Error string `json:"error,omitempty"`
}

const timelineSummaryKind = "tl_summary"

// WriteJSONLFailed streams the retained windows to w, one JSON object
// per line, oldest first, followed by one "tl_summary" record that
// carries failure, the recording run's error or "". With the wall
// sampler off the bytes are a pure function of the trial work: identical
// across worker counts.
func (t *Timeline) WriteJSONLFailed(w io.Writer, failure string) error {
	t.mu.Lock()
	wins := make([]TimelineWindow, 0, len(t.buf))
	wins = append(wins, t.buf[t.next:]...)
	wins = append(wins, t.buf[:t.next]...)
	total, dropped := t.total, t.dropped
	t.mu.Unlock()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, win := range wins {
		if err := enc.Encode(win); err != nil {
			return err
		}
	}
	sum := TimelineSummary{
		Kind:         timelineSummaryKind,
		Retained:     len(wins),
		Total:        total,
		Dropped:      dropped,
		WindowTrials: t.cfg.windowTrials(),
		Error:        failure,
	}
	if err := enc.Encode(sum); err != nil {
		return err
	}
	return bw.Flush()
}

// TimelineLog is a decoded timeline export: the windows plus the
// summary's accounting, mirroring Trace for trace files.
type TimelineLog struct {
	Windows []TimelineWindow
	// Total/Dropped/WindowTrials come from the trailing summary. When
	// the file has no summary (Truncated), Total is len(Windows) and
	// the others are zero — lower bounds, not facts.
	Total        int
	Dropped      int
	WindowTrials int
	// Error is the summary's: the error the recording run failed with.
	Error string
	// Truncated reports the file ended without a summary record.
	Truncated bool
}

// Logical returns only the deterministic logical windows, in order.
func (l *TimelineLog) Logical() []TimelineWindow {
	out := make([]TimelineWindow, 0, len(l.Windows))
	for _, w := range l.Windows {
		if w.Kind == WindowLogical {
			out = append(out, w)
		}
	}
	return out
}

// ReadTimelineLog decodes a JSONL timeline written by WriteJSONL. Like
// ReadJSONL it tolerates a truncated tail (see scanJSONL): a final line
// that is unparseable or missing its newline marks the log Truncated
// instead of failing; garbage before the final line is corruption and
// errors.
func ReadTimelineLog(r io.Reader) (*TimelineLog, error) {
	tl := &TimelineLog{Truncated: true}
	tail, err := scanJSONL(r, 1<<22, func(line int, raw []byte) error {
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			return fmt.Errorf("obs: timeline line %d: %w", line, err)
		}
		if kind.Kind == timelineSummaryKind {
			var sum TimelineSummary
			if err := json.Unmarshal(raw, &sum); err != nil {
				return fmt.Errorf("obs: timeline line %d: %w", line, err)
			}
			tl.Total, tl.Dropped, tl.WindowTrials, tl.Error, tl.Truncated = sum.Total, sum.Dropped, sum.WindowTrials, sum.Error, false
			return nil
		}
		var w TimelineWindow
		if err := json.Unmarshal(raw, &w); err != nil {
			return fmt.Errorf("obs: timeline line %d: %w", line, err)
		}
		tl.Truncated = true // windows after a summary: stale summary
		tl.Windows = append(tl.Windows, w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tail || tl.Truncated {
		tl.Truncated = true
		tl.Total = len(tl.Windows)
		tl.Dropped = 0
		tl.WindowTrials = 0
	}
	return tl, nil
}
