package obs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
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
// dropped-event accounting exact). The ring fills up to its capacity in
// events, then wraps, evicting the oldest event per new one; Dropped
// counts the evictions. A nil *Recorder ignores every call.
//
// Events are kept as variable-length records (see encode) that hold no
// pointers, so the garbage collector never scans the ring. Records are
// appended back to back into byte chunks; a record never straddles two.
// Eviction only counts the head chunk's evicted records, and once all of
// them are evicted the chunk goes onto a free list that the tail reuses,
// so a ring that has reached its size allocates nothing. Exports decode
// the chunks in place, under the lock, one event at a time.
type Recorder struct {
	mu        sync.Mutex
	chunks    []chunk  // oldest first; every chunk holds a retained record
	free      [][]byte // emptied chunk buffers, reused before allocating
	skip      int      // evicted records at the front of chunks[0]
	chunkSize int      // chunkBytes, or less for a small ring
	cap       int
	n         int // retained events
	total     uint64
	dropped   uint64
	scratch   [maxRecordBytes]byte
	// strs and ids are the string table: the distinct non-empty Kind,
	// Labels and Outcome values recorded since the last Reset. A record's
	// string ID 0 is the empty string, ID i >= 1 is strs[i-1].
	strs []string
	ids  map[string]uint32
}

// chunk is a run of encoded records.
type chunk struct {
	buf []byte
	n   int // records in buf
}

// A record is a uvarint presence mask followed by one varint per non-zero
// field, in recordFields order. Mask bits 0-2 are the three booleans; bit
// flagBits+f says field f is present. Kind, Labels and Outcome are stored
// as string table IDs. The events of a coding campaign encode in 14
// bytes on average and 18 at most; a record with every field at a 64-bit
// extreme takes maxRecordBytes.
const (
	flagDetected = 1 << iota
	flagBALost
	flagDelivered
	flagBits = iota

	recordFields   = 15
	maxRecordBytes = (flagBits+recordFields+6)/7 + recordFields*binary.MaxVarintLen64 // 153

	// chunkBytes is the size of a chunk, cut to the worst case of the
	// whole ring for small capacities.
	chunkBytes = 64 << 10
)

// DefaultTraceCap bounds a recorder created with capacity <= 0. A
// retained event of a coding campaign costs about 14 bytes in memory (at
// most maxRecordBytes, 153, for any event), plus one string table entry
// per distinct label, so a full ring of such events holds about 3.5 MiB.
const DefaultTraceCap = 1 << 18

// NewRecorder returns a recorder holding at most capacity events
// (DefaultTraceCap when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	size := chunkBytes
	if capacity < chunkBytes/maxRecordBytes {
		size = capacity * maxRecordBytes
	}
	return &Recorder{cap: capacity, chunkSize: size, ids: make(map[string]uint32)}
}

// Record appends one event, evicting the oldest once full (nil-safe).
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	rec := r.encode(r.scratch[:0], &e)
	if r.n == r.cap {
		r.evict()
	}
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last].buf)+len(rec) > r.chunkSize {
		var buf []byte
		if k := len(r.free); k > 0 {
			buf, r.free = r.free[k-1], r.free[:k-1]
		} else {
			buf = make([]byte, 0, r.chunkSize)
		}
		r.chunks = append(r.chunks, chunk{buf: buf})
		last++
	}
	c := &r.chunks[last]
	c.buf = append(c.buf, rec...)
	c.n++
	r.n++
	r.total++
	r.mu.Unlock()
}

// evict drops the oldest retained event, freeing the head chunk once all
// of its records are gone.
func (r *Recorder) evict() {
	r.n--
	r.dropped++
	r.skip++
	if r.skip < r.chunks[0].n {
		return
	}
	r.free = append(r.free, r.chunks[0].buf[:0])
	copy(r.chunks, r.chunks[1:])
	r.chunks = r.chunks[:len(r.chunks)-1]
	r.skip = 0
}

// encode appends e's record to b, interning its strings.
func (r *Recorder) encode(b []byte, e *Event) []byte {
	v := [recordFields]int64{
		int64(r.intern(e.Kind)), int64(e.Trial), int64(r.intern(e.Labels)), int64(e.Round),
		int64(e.Bits), int64(e.BitErrors), e.AirtimeUs, e.SNRmDb,
		int64(e.Offset), int64(e.Length), int64(e.Level), int64(r.intern(e.Outcome)),
		int64(e.Rounds), int64(e.Retries), e.WallMs,
	}
	var mask uint64
	if e.Detected {
		mask |= flagDetected
	}
	if e.BALost {
		mask |= flagBALost
	}
	if e.Delivered {
		mask |= flagDelivered
	}
	for f, x := range v {
		if x != 0 {
			mask |= 1 << (flagBits + f)
		}
	}
	b = binary.AppendUvarint(b, mask)
	for _, x := range v {
		if x != 0 {
			b = binary.AppendVarint(b, x)
		}
	}
	return b
}

// decode rebuilds the event whose record starts b into e and returns the
// rest of b.
func (r *Recorder) decode(b []byte, e *Event) []byte {
	mask, k := binary.Uvarint(b)
	b = b[k:]
	var v [recordFields]int64
	for f := range v {
		if mask&(1<<(flagBits+f)) != 0 {
			v[f], k = binary.Varint(b)
			b = b[k:]
		}
	}
	*e = Event{
		Kind: r.str(v[0]), Trial: int(v[1]), Labels: r.str(v[2]), Round: int(v[3]),
		Detected: mask&flagDetected != 0, BALost: mask&flagBALost != 0,
		Bits: int(v[4]), BitErrors: int(v[5]), AirtimeUs: v[6], SNRmDb: v[7],
		Offset: int(v[8]), Length: int(v[9]), Level: int(v[10]), Outcome: r.str(v[11]),
		Delivered: mask&flagDelivered != 0, Rounds: int(v[12]), Retries: int(v[13]),
		WallMs: v[14],
	}
	return b
}

// intern returns the string table ID of s, adding s if it is new.
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

// str returns the string with table ID id.
func (r *Recorder) str(id int64) string {
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
	for _, c := range r.chunks {
		r.free = append(r.free, c.buf[:0])
	}
	r.chunks = r.chunks[:0]
	r.skip = 0
	r.n = 0
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
	for i, c := range r.chunks {
		b := c.buf
		for k := 0; k < c.n; k++ {
			b = r.decode(b, &e)
			if i == 0 && k < r.skip {
				continue
			}
			if err := fn(&e); err != nil {
				return err
			}
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
	// Error is the recording run's failure; empty when it passed.
	Error string `json:"error,omitempty"`
}

// summaryKind discriminates the trailing TraceSummary record from events.
const summaryKind = "summary"

// WriteJSONL streams the retained events to w, one JSON object per line,
// oldest first, followed by one "summary" record carrying the recorder's
// total and dropped counts (so a clipped ring is never misread as a
// complete run). It holds the recorder's lock for the whole export, so
// the summary always agrees with the events it follows; a concurrent
// Record waits for the export to finish.
func (r *Recorder) WriteJSONL(w io.Writer) error { return r.WriteJSONLFailed(w, "") }

// WriteJSONLFailed is WriteJSONL with failure on the summary record.
// Events are written by appendEventJSON, into one line buffer reused
// across the export.
func (r *Recorder) WriteJSONLFailed(w io.Writer, failure string) error {
	bw := bufio.NewWriter(w)
	sum := TraceSummary{Kind: summaryKind, Error: failure}
	if r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		var line []byte
		if err := r.each(func(e *Event) error {
			line = appendEventJSON(line[:0], e)
			_, err := bw.Write(line)
			return err
		}); err != nil {
			return err
		}
		sum.Retained, sum.Total, sum.Dropped = r.n, r.total, r.dropped
	}
	if err := json.NewEncoder(bw).Encode(sum); err != nil {
		return err
	}
	return bw.Flush()
}

// appendEventJSON appends the line json.Encoder.Encode writes for e: its
// fields in declaration order, the omitempty ones only when non-zero,
// strings escaped as the encoder escapes them, then a newline.
func appendEventJSON(b []byte, e *Event) []byte {
	b = append(b, `{"kind":`...)
	b = appendEncoderString(b, e.Kind)
	b = appendJSONInt(b, `,"trial":`, int64(e.Trial))
	if e.Labels != "" {
		b = appendEncoderString(append(b, `,"labels":`...), e.Labels)
	}
	b = appendJSONInt(b, `,"round":`, int64(e.Round))
	if e.Detected {
		b = append(b, `,"detected":true`...)
	}
	if e.BALost {
		b = append(b, `,"ba_lost":true`...)
	}
	b = appendJSONInt(b, `,"bits":`, int64(e.Bits))
	b = appendJSONInt(b, `,"bit_errors":`, int64(e.BitErrors))
	b = appendJSONInt(b, `,"airtime_us":`, e.AirtimeUs)
	b = appendJSONInt(b, `,"snr_mdb":`, e.SNRmDb)
	b = appendJSONInt(b, `,"offset":`, int64(e.Offset))
	b = appendJSONInt(b, `,"length":`, int64(e.Length))
	b = appendJSONInt(b, `,"level":`, int64(e.Level))
	if e.Outcome != "" {
		b = appendEncoderString(append(b, `,"outcome":`...), e.Outcome)
	}
	if e.Delivered {
		b = append(b, `,"delivered":true`...)
	}
	b = appendJSONInt(b, `,"rounds":`, int64(e.Rounds))
	b = appendJSONInt(b, `,"retries":`, int64(e.Retries))
	b = appendJSONInt(b, `,"wall_ms":`, e.WallMs)
	return append(b, "}\n"...)
}

// appendJSONInt appends key and v when v is non-zero (omitempty).
func appendJSONInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendEncoderString appends s quoted as encoding/json quotes it, with
// HTML escaping on: `"` and `\` backslashed; \b, \f, \n, \r and \t short;
// other control bytes and <, > and & as \u00XX; invalid UTF-8 as \ufffd;
// and U+2028 and U+2029 as \u2028 and \u2029.
func appendEncoderString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
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
	// Error is the summary's: the error the recording run failed with.
	Error string
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
			tr.Total, tr.Dropped, tr.Error, tr.Truncated = sum.Total, sum.Dropped, sum.Error, false
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
