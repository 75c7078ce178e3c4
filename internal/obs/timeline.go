package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Timeline turns a registry's cumulative counters into a bounded ring of
// per-window deltas — the time axis the rest of the obs layer lacks. Its
// axis is logical: a window closes every WindowTrials completed trials,
// sampled from sim.Runner's completion stream. The runner executes trials
// in window-sized chunks and samples only at chunk barriers, so a
// window's delta is exactly the sum of its own trials' contributions — a
// pure function of the work, independent of worker count and scheduling.
// Deltas are stored through Snapshot.Deterministic(), so they hold no
// wall-clock instrument at all and the exported TL_*.jsonl bytes are
// identical at 1 and NumCPU workers
// (TestTimelineWindowsIdenticalAcrossWorkerCounts).
//
// A Timeline is a pure sink: it draws no RNG values and feeds nothing
// back into trials, so science output is byte-identical with a timeline
// attached or not (TestTimelineDoesNotPerturbResults).
type Timeline struct {
	reg *Registry
	cfg TimelineConfig

	mu       sync.Mutex
	base     Snapshot // registry state when the last window closed
	done     int64    // cumulative trials noted complete
	winStart int64    // value of done when the open window began
	segment  int      // current Each-call segment (1-based)
	spans    []TrialSpan
	seq      int

	buf     []TimelineWindow // ring, wraps at cfg.Cap
	next    int
	total   int
	dropped int
}

// WindowLogical is every window's Kind. It tells a window line of a
// timeline export from the trailing "tl_summary" record.
const WindowLogical = "logical"

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

// Contains reports whether the span covers trial index i, in any
// segment: trace events don't carry the segment, so per-trial alignment
// is by index across all segments.
func (s TrialSpan) Contains(i int) bool {
	return i >= s.Lo && i < s.Hi
}

// TimelineWindow is one closed window: the registry's activity between
// two points on the campaign's logical clock.
type TimelineWindow struct {
	// Kind is always WindowLogical.
	Kind string `json:"kind"`
	// Seq numbers windows from 0.
	Seq int `json:"seq"`
	// DoneStart/DoneEnd bound the window on the logical clock: the
	// cumulative completed-trial count when the window opened and
	// closed.
	DoneStart int64 `json:"done_start"`
	DoneEnd   int64 `json:"done_end"`
	// Spans lists the trial-index ranges the window covers.
	Spans []TrialSpan `json:"spans,omitempty"`
	// Delta is the registry activity inside the window, in its
	// Deterministic() view.
	Delta Snapshot `json:"delta"`
}

// NewTimeline attaches a timeline to reg, snapshotting it now as the
// baseline so deltas never include activity from before the attach.
func NewTimeline(reg *Registry, cfg TimelineConfig) *Timeline {
	return &Timeline{reg: reg, cfg: cfg, base: reg.Snapshot()}
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

// ChunkLimit returns how many more trials the open window
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
// contributions are fully visible). Closes the window whenever
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
		t.closeLocked()
	}
}

// Flush closes the open partial window, if any — call it once
// the campaign's trial work is finished, before exporting (nil-safe).
func (t *Timeline) Flush() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done > t.winStart {
		t.closeLocked()
	}
}

func (t *Timeline) closeLocked() {
	snap := t.reg.Snapshot()
	w := TimelineWindow{
		Kind:      WindowLogical,
		Seq:       t.seq,
		DoneStart: t.winStart,
		DoneEnd:   t.done,
		Spans:     t.spans,
		Delta:     snap.Delta(t.base).Deterministic(),
	}
	t.seq++
	t.base = snap
	t.winStart = t.done
	t.spans = nil
	t.appendLocked(w)
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
// carries failure, the recording run's error or "". The bytes are a pure
// function of the trial work: identical across worker counts.
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

// ReadTimelineLog decodes a JSONL timeline written by WriteJSONL. Like
// ReadJSONL it tolerates a truncated tail (see scanJSONL): a final line
// that is unparseable or missing its newline marks the log Truncated
// instead of failing; garbage before the final line is corruption and
// errors, and so does a window line whose kind is not "logical".
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
		if kind.Kind != WindowLogical {
			return fmt.Errorf("obs: timeline line %d: unknown kind %q", line, kind.Kind)
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
