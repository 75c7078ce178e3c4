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
	// "symbol" (one LT symbol), "shard" (one RS shard), "fault" or
	// "trial". WriteJSONL appends one extra "summary" record
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

	// Segment, symbol, shard, fault and transfer fields.
	Offset    int    `json:"offset,omitempty"`
	Length    int    `json:"length,omitempty"`
	Level     int    `json:"level,omitempty"`
	Outcome   string `json:"outcome,omitempty"` // segment, symbol, shard: ok|erased|frame_error; fault: event name; coded transfer: scheme
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
// dropped-event accounting exact). The ring fills up to its capacity,
// then wraps, overwriting the oldest events; Dropped counts the
// overwrites. A nil *Recorder ignores every call.
//
// Events are kept in compact slots (see slot) that hold no pointers, so
// the garbage collector never scans the ring. The slots live in chunks of
// chunkSlots, allocated as the ring fills and never past its capacity, so
// growth never holds two copies of the ring. Exports read the slots in
// place, under the lock, one event at a time.
type Recorder struct {
	mu      sync.Mutex
	chunks  [][]slot
	cap     int
	n       int // retained events
	next    int // wrap position once n == cap
	total   uint64
	dropped uint64
	// strs and ids are the string table: the distinct non-empty Kind,
	// Labels and Outcome values recorded since the last Reset. A slot's
	// string index 0 is the empty string, index i >= 1 is strs[i-1].
	strs []string
	ids  map[string]uint32
}

// chunkSlots is the number of slots per chunk; the last chunk of a ring
// whose capacity it does not divide is shorter.
const (
	chunkBits  = 12
	chunkSlots = 1 << chunkBits
)

// slot is an Event in the ring's compact form: 112 bytes on 64-bit
// platforms against Event's 160. The integers keep their full width, the
// three booleans share one flags byte, and the three strings are indices
// into the recorder's string table.
type slot struct {
	trial, round, bits, bitErrors          int
	offset, length, level, rounds, retries int
	airtimeUs, snrMdb, wallMs              int64
	kind, labels, outcome                  uint32
	flags                                  uint8
}

const (
	flagDetected uint8 = 1 << iota
	flagBALost
	flagDelivered
)

// DefaultTraceCap bounds a recorder created with capacity <= 0. A
// retained event costs 112 bytes in memory (plus one string table entry
// per distinct label), so a full ring holds ~28 MiB.
const DefaultTraceCap = 1 << 18

// NewRecorder returns a recorder holding at most capacity events
// (DefaultTraceCap when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Recorder{cap: capacity, ids: make(map[string]uint32)}
}

// Record appends one event, overwriting the oldest once full (nil-safe).
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	var i int
	if r.n < r.cap {
		if r.n>>chunkBits == len(r.chunks) {
			r.chunks = append(r.chunks, make([]slot, min(chunkSlots, r.cap-r.n)))
		}
		i = r.n
		r.n++
	} else {
		i = r.next
		r.next = (r.next + 1) % r.cap
		r.dropped++
	}
	r.pack(r.at(i), e)
	r.total++
	r.mu.Unlock()
}

// at returns the slot at ring position i.
func (r *Recorder) at(i int) *slot {
	return &r.chunks[i>>chunkBits][i&(chunkSlots-1)]
}

// pack stores e in s, interning its strings.
func (r *Recorder) pack(s *slot, e Event) {
	*s = slot{
		trial: e.Trial, round: e.Round, bits: e.Bits, bitErrors: e.BitErrors,
		offset: e.Offset, length: e.Length, level: e.Level, rounds: e.Rounds, retries: e.Retries,
		airtimeUs: e.AirtimeUs, snrMdb: e.SNRmDb, wallMs: e.WallMs,
		kind: r.intern(e.Kind), labels: r.intern(e.Labels), outcome: r.intern(e.Outcome),
	}
	if e.Detected {
		s.flags |= flagDetected
	}
	if e.BALost {
		s.flags |= flagBALost
	}
	if e.Delivered {
		s.flags |= flagDelivered
	}
}

// unpack rebuilds the event stored in s.
func (r *Recorder) unpack(s *slot) Event {
	return Event{
		Kind: r.str(s.kind), Trial: s.trial, Labels: r.str(s.labels), Round: s.round,
		Detected: s.flags&flagDetected != 0, BALost: s.flags&flagBALost != 0,
		Bits: s.bits, BitErrors: s.bitErrors, AirtimeUs: s.airtimeUs, SNRmDb: s.snrMdb,
		Offset: s.offset, Length: s.length, Level: s.level, Outcome: r.str(s.outcome),
		Delivered: s.flags&flagDelivered != 0, Rounds: s.rounds, Retries: s.retries,
		WallMs: s.wallMs,
	}
}

// intern returns the string table index of s, adding s if it is new.
func (r *Recorder) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := r.ids[s]; ok {
		return id
	}
	r.strs = append(r.strs, s)
	id := uint32(len(r.strs))
	r.ids[s] = id
	return id
}

// str returns the string at table index id.
func (r *Recorder) str(id uint32) string {
	if id == 0 {
		return ""
	}
	return r.strs[id-1]
}

// Reset empties the ring and its string table and zeroes its totals, so
// the next export reads exactly like one from a fresh recorder of the
// same capacity (nil-safe). The chunks stay allocated for reuse.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.n = 0
	r.next = 0
	r.total = 0
	r.dropped = 0
	clear(r.strs)
	r.strs = r.strs[:0]
	clear(r.ids)
	r.mu.Unlock()
}

// each calls fn on every retained event, oldest first, stopping at fn's
// first error. The caller holds r.mu. fn gets the same *Event each time,
// overwritten per event, so the walk allocates one Event in all.
func (r *Recorder) each(fn func(*Event) error) error {
	var e Event
	for k := 0; k < r.n; k++ {
		i := r.next + k
		if i >= r.cap {
			i -= r.cap
		}
		e = r.unpack(r.at(i))
		if err := fn(&e); err != nil {
			return err
		}
	}
	return nil
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	_ = r.each(func(e *Event) error { // the callback never fails
		out = append(out, *e)
		return nil
	})
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
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

// WriteJSONL streams the retained events to w, one JSON object per line,
// oldest first, followed by one "summary" record carrying the recorder's
// total and dropped counts (so a clipped ring is never misread as a
// complete run). It holds the recorder's lock for the whole export, so
// the summary always agrees with the events it follows; a concurrent
// Record waits for the export to finish.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	sum := TraceSummary{Kind: summaryKind}
	if r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		if err := r.each(func(e *Event) error { return enc.Encode(e) }); err != nil {
			return err
		}
		sum.Retained, sum.Total, sum.Dropped = r.n, r.total, r.dropped
	}
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
