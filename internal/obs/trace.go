package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one structured trace record. A single flat struct with
// omitempty fields (rather than per-kind types) keeps recording
// allocation-free and the JSONL schema self-describing.
type Event struct {
	// Kind discriminates the record: "round", "segment", "transfer",
	// "fault" or "trial". WriteJSONL appends one extra "summary" record
	// that is not an event (see TraceSummary).
	Kind string `json:"kind"`
	// Trial is the trace ID of the deployment that emitted the event
	// (the trial index in Monte-Carlo campaigns).
	Trial int `json:"trial,omitempty"`
	// Labels is the trial's stats.SubSeed label path ("fig5/d=3/run=2").
	// It names the trial's position in the experiment's seed tree, which
	// is exactly what a forensic replay needs to rebuild the trial.
	Labels string `json:"labels,omitempty"`
	// Round is the emitting system's per-deployment round sequence number
	// (1-based so it survives omitempty).
	Round int `json:"round,omitempty"`

	// Round fields.
	Detected  bool  `json:"detected,omitempty"`
	BALost    bool  `json:"ba_lost,omitempty"`
	Bits      int   `json:"bits,omitempty"` // tag bits carried this round
	BitErrors int   `json:"bit_errors,omitempty"`
	AirtimeUs int64 `json:"airtime_us,omitempty"`
	SNRmDb    int64 `json:"snr_mdb,omitempty"` // link SNR in milli-dB

	// Segment / transfer fields.
	Offset    int    `json:"offset,omitempty"`
	Length    int    `json:"length,omitempty"`
	Level     int    `json:"level,omitempty"`
	Outcome   string `json:"outcome,omitempty"` // segment: ok|erased|frame_error; fault: event name
	Delivered bool   `json:"delivered,omitempty"`
	Rounds    int    `json:"rounds,omitempty"`
	Retries   int    `json:"retries,omitempty"`

	// Trial fields (wall time is diagnostic; it never feeds back into
	// the simulation).
	WallMs int64 `json:"wall_ms,omitempty"`
}

// Recorder is a bounded ring buffer of events. Recording is mutex-guarded
// (tracing is opt-in; when enabled, a short critical section per event is
// cheaper than the allocation churn of a lock-free ring and keeps the
// dropped-event accounting exact). The buffer grows by appending up to
// its capacity, then wraps, overwriting the oldest events; Dropped counts
// the overwrites. A nil *Recorder ignores every call.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	cap     int
	next    int // wrap position once len(buf) == cap
	total   uint64
	dropped uint64
}

// DefaultTraceCap bounds a recorder created with capacity <= 0. At
// roughly 150 bytes per in-memory event this is ~40 MB fully loaded.
const DefaultTraceCap = 1 << 18

// NewRecorder returns a recorder holding at most capacity events
// (DefaultTraceCap when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Recorder{cap: capacity}
}

// Record appends one event, overwriting the oldest once full (nil-safe).
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.cap
		r.dropped++
	}
	r.total++
	r.mu.Unlock()
}

// Reset empties the ring and zeroes its totals, so the next export reads
// exactly like one from a fresh recorder of the same capacity (nil-safe).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.next = 0
	r.total = 0
	r.dropped = 0
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns how many events were ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// TraceSummary is the trailing record of a JSONL export. It makes a
// clipped ring self-describing: a reader that sees Dropped > 0 knows the
// file holds only the newest Retained of Total events, and a reader that
// sees no summary at all knows the file itself was truncated mid-write.
type TraceSummary struct {
	Kind     string `json:"kind"` // always "summary"
	Retained int    `json:"retained"`
	Total    uint64 `json:"total"`
	Dropped  uint64 `json:"dropped"`
}

// summaryKind discriminates the trailing TraceSummary record from events.
const summaryKind = "summary"

// snapshot returns the retained events plus the totals under one lock, so
// an export's summary line always agrees with the events it follows even
// while recording continues concurrently.
func (r *Recorder) snapshot() (events []Event, total, dropped uint64) {
	if r == nil {
		return nil, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	events = make([]Event, 0, len(r.buf))
	events = append(events, r.buf[r.next:]...)
	events = append(events, r.buf[:r.next]...)
	return events, r.total, r.dropped
}

// WriteJSONL streams the retained events to w, one JSON object per line,
// oldest first, followed by one "summary" record carrying the recorder's
// total and dropped counts (so a clipped ring is never misread as a
// complete run).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	events, total, dropped := r.snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	sum := TraceSummary{Kind: summaryKind, Retained: len(events), Total: total, Dropped: dropped}
	if err := enc.Encode(sum); err != nil {
		return err
	}
	return bw.Flush()
}

// Trace is a decoded JSONL export: the events plus the summary's
// accounting. ReadJSONL(WriteJSONL(r)) reproduces r's events, total and
// dropped counts exactly.
type Trace struct {
	Events []Event
	// Total and Dropped come from the trailing summary record: how many
	// events the recorder ever saw and how many the ring overwrote. When
	// the file has no summary (Truncated), Total is len(Events) and
	// Dropped is 0 — lower bounds, not facts.
	Total   uint64
	Dropped uint64
	// Truncated reports that the file ended without a summary record —
	// the writer died mid-export, so the tail of the trace is missing.
	Truncated bool
}

// Clipped reports whether the trace is incomplete: the ring overwrote
// events before export, or the file itself lost its tail.
func (t *Trace) Clipped() bool { return t.Dropped > 0 || t.Truncated }

// scanJSONL feeds fn each non-empty line of a JSONL export with its
// 1-based line number, applying the tail tolerance every export reader
// shares. Writers end each record with a newline, so the damage an
// interrupted write leaves sits on the last line: a final line with no
// newline is never passed to fn, and a final line fn rejects is not an
// error. Either is reported as tail. A rejected line with anything after
// it is corruption, and its error is returned.
func scanJSONL(r io.Reader, maxLine int, fn func(line int, raw []byte) error) (tail bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	terminated := true
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if tok != nil {
			terminated = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	var pending error
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if pending != nil {
			// The bad line was not the tail after all.
			return false, pending
		}
		if !terminated {
			return true, nil // only the final line can lack its newline
		}
		pending = fn(line, raw)
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return pending != nil, nil
}

// ReadJSONL decodes a JSONL trace written by WriteJSONL. It is a
// streaming decoder, tolerant of a truncated tail (see scanJSONL): a
// final line that is incomplete, unparseable or missing its newline marks
// the trace Truncated instead of failing, so a trace cut off mid-write
// still analyzes. Garbage before the final line is an error — that is
// corruption, not truncation.
func ReadJSONL(r io.Reader) (*Trace, error) {
	tr := &Trace{Truncated: true}
	tail, err := scanJSONL(r, 1<<20, func(line int, raw []byte) error {
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			return fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if kind.Kind == summaryKind {
			var sum TraceSummary
			if err := json.Unmarshal(raw, &sum); err != nil {
				return fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			tr.Total, tr.Dropped, tr.Truncated = sum.Total, sum.Dropped, false
			return nil
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		// Events after a summary: the file was appended to; the old
		// summary no longer covers it.
		tr.Truncated = true
		tr.Events = append(tr.Events, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tail || tr.Truncated {
		tr.Truncated = true
		tr.Total = uint64(len(tr.Events))
		tr.Dropped = 0
	}
	return tr, nil
}
