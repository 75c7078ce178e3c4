package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets for the tolerant export readers. Each checks three
// properties: arbitrary input never panics; writer output reads back
// unchanged; and no strict prefix of writer output reads as complete —
// it is reported as truncated, or as an error. `make fuzzseed` replays
// the seeds below; `make fuzz` explores.

// fuzzGen bounds the bytes a writer-side generator consumes, keeping
// the all-prefixes check (quadratic in the export size) fast.
func fuzzGen(data []byte, n int) []byte {
	return data[:min(len(data), n)]
}

// fuzzRecorder builds a recorder whose capacity and events derive from
// data, so the fuzzer reaches clipped rings too.
func fuzzRecorder(data []byte) *Recorder {
	data = fuzzGen(data, 16)
	cap := 1
	if len(data) > 0 {
		cap += int(data[0] % 6)
	}
	rec := NewRecorder(cap)
	kinds := []string{"round", "segment", "transfer", "fault", "trial"}
	for i, b := range data {
		rec.Record(Event{
			Kind: kinds[int(b)%len(kinds)], Trial: int(b >> 3), Round: i + 1,
			Labels: strings.ToValidUTF8(string(data[:i%7]), "?"), Detected: b&1 == 1, Bits: int(b),
		})
	}
	return rec
}

func FuzzReadJSONL(f *testing.F) {
	for _, seed := range [][]byte{nil, {0}, {3, 1, 4, 1, 5, 9, 2, 6}, []byte("fig5/d=3/run=2 label bytes")} {
		var buf bytes.Buffer
		if err := fuzzRecorder(seed).WriteJSONL(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte("not json\n{\"kind\":\"round\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ReadJSONL(bytes.NewReader(data)) // must not panic

		rec := fuzzRecorder(data)
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.Bytes()
		tr, err := ReadJSONL(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("writer output unreadable: %v", err)
		}
		if events := rec.Events(); tr.Truncated || tr.Total != rec.total || tr.Dropped != rec.Dropped() ||
			len(tr.Events) != len(events) || len(events) > 0 && !reflect.DeepEqual(tr.Events, events) {
			t.Fatalf("writer output read back changed: truncated %v, total %d/%d, dropped %d/%d",
				tr.Truncated, tr.Total, rec.total, tr.Dropped, rec.Dropped())
		}
		for n := 0; n < len(out); n++ {
			if p, err := ReadJSONL(bytes.NewReader(out[:n])); err == nil && !p.Truncated {
				t.Fatalf("%d-byte prefix of a %d-byte export read as complete", n, len(out))
			}
		}
	})
}

// ringExtremes are the values an extreme event's integer fields take.
var ringExtremes = []int64{math.MinInt64, math.MaxInt64, -1, -64, -65, math.MinInt64 + 1, math.MinInt32}

// fuzzRingOps replays the recorder operations encoded in ops, one
// (op, a, b) triple each. Bits 3-4 of op pick the operation: 0 records an
// event built from op, a and b; 1 records an extreme event, whose every
// integer field is one of ringExtremes, picked by a; 2 records the
// all-zero event; 3 resets. The low three bits set the flags, and an
// event is recorded 1<<(op>>5) times (1 to 128). Strings are cut from ops
// raw, so they may be empty, need escaping, or be invalid UTF-8.
func fuzzRingOps(ops []byte, record func(Event), reset func()) {
	str := func(k int) string {
		if k%3 == 0 {
			return ""
		}
		from := k % len(ops)
		return string(ops[from:min(len(ops), from+k%7)])
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], int(ops[i+1]), int(ops[i+2])
		if op>>3&3 == 3 {
			reset()
			continue
		}
		for k := 0; k < 1<<(op>>5); k++ {
			e := Event{
				Kind: str(a), Trial: a - b, Labels: str(b), Round: i + k,
				Detected: op&1 == 1, BALost: op&2 == 2, Bits: a * b, BitErrors: b,
				AirtimeUs: int64(a) << 40, SNRmDb: -int64(b), Offset: k, Length: a,
				Level: int(op), Outcome: str(a + b), Delivered: op&4 == 4,
				Rounds: -k, Retries: b - a,
			}
			switch op >> 3 & 3 {
			case 1:
				x := func(f int) int64 { return ringExtremes[(a+f)%len(ringExtremes)] }
				e.Trial, e.Round, e.Bits, e.BitErrors = int(x(0)), int(x(1)), int(x(2)), int(x(3))
				e.AirtimeUs, e.SNRmDb = x(4), x(5)
				e.Offset, e.Length, e.Level, e.Rounds, e.Retries = int(x(7)), int(x(8)), int(x(9)), int(x(10)), int(x(11))
			case 2:
				e = Event{}
			}
			record(e)
		}
	}
}

// boundarySeed returns a FuzzRecorderRoundTrip input whose first chunk
// ends exactly at the end of a record: it picks the chunk size byte from
// the encoded sizes of the events ops records.
func boundarySeed(f *testing.F, capacity byte, ops []byte) []byte {
	enc := NewRecorder(1)
	sum := 0
	chunk := 0
	fuzzRingOps(ops, func(e Event) {
		sum += len(enc.encode(nil, &e))
		if sum >= maxRecordBytes && sum < maxRecordBytes+256 {
			chunk = sum - maxRecordBytes + 1
		}
	}, func() {})
	if chunk == 0 {
		f.Fatal("boundarySeed: no record prefix fits the chunk size range")
	}
	return append([]byte{capacity, byte(chunk)}, ops...)
}

// FuzzRecorderRoundTrip drives a recorder against a plain slice of every
// event recorded since the last Reset. The first byte picks a capacity of
// up to 15 chunks' worth; the second the chunk size: 0 keeps
// NewRecorder's, and c > 0 gives maxRecordBytes+c−1 bytes, so short
// inputs cross and recycle many chunks. The rest are fuzzRingOps
// operations. Events must return the model's newest capacity events, the
// export must equal encoding those events one per line followed by the
// summary, the export must read back complete with the model's totals,
// and the ring must keep within checkChunkBound.
func FuzzRecorderRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 0, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	f.Add([]byte("\x05\x00round\x00\xffsegment\"\\\x01 fig5/d=3/run=2"))
	f.Add([]byte{0x21, 0, 0xe1, 7, 9, 0xe2, 0x10, 0x20, 0x07, 1, 2, 0xc3, 4, 5, 0xe0, 6, 7})
	// Extremes in every integer field, the all-zero event and all flags.
	extremes := []byte{0x05, 0}
	for a := range ringExtremes {
		extremes = append(extremes, 0x08|byte(a%8), byte(a), byte(2*a))
	}
	f.Add(append(extremes, 0x10, 0, 0, 0x07, 9, 9, 0x0f, 1, 2))
	// 5121 events taking 6400 in 64 KiB chunks: wraps across a chunk
	// boundary with the recorder's own chunk size.
	long := []byte{0x51, 0}
	for i := 0; i < 50; i++ {
		long = append(long, 0xe0, byte(i), byte(3*i))
	}
	f.Add(long)
	// Small chunks: the ring recycles its head chunk many times, then
	// resets and refills the recycled chunks.
	small := []byte{0x09, 1}
	for i := 0; i < 20; i++ {
		small = append(small, 0x20|byte(i%8), byte(i), byte(7*i))
	}
	f.Add(small)
	f.Add(append(append([]byte(nil), small...), 0x18, 0, 0, 0x61, 5, 6))
	// Records that fill a chunk exactly, with and without a wrap.
	var ops []byte
	for i := 0; i < 30; i++ {
		ops = append(ops, byte(i%8), byte(11*i), byte(5*i))
	}
	f.Add(boundarySeed(f, 0x03, ops))
	f.Add(boundarySeed(f, 0x4f, ops))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = fuzzGen(data, 256)
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(data[0]&0x0f) + int(data[0]>>4)*1024
		rec := NewRecorder(capacity)
		if data[1] > 0 {
			rec.chunkSize = maxRecordBytes + int(data[1]) - 1
		}
		var model []Event
		fuzzRingOps(data[2:], func(e Event) {
			rec.Record(e)
			model = append(model, e)
		}, func() {
			rec.Reset()
			model = model[:0]
		})
		checkChunkBound(t, rec)
		want := model[max(0, len(model)-capacity):]
		if got := rec.Events(); !slices.Equal(got, want) {
			t.Fatalf("Events returned %d events, want the model's newest %d", len(got), len(want))
		}
		var ref bytes.Buffer
		enc := json.NewEncoder(&ref)
		for _, e := range want {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
		sum := TraceSummary{Kind: summaryKind, Retained: len(want), Total: uint64(len(model)), Dropped: uint64(len(model) - len(want))}
		if err := enc.Encode(sum); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rec.WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), ref.Bytes()) {
			t.Fatalf("export differs from encoding the model's events:\n got %.300q\nwant %.300q", out.Bytes(), ref.Bytes())
		}
		tr, err := ReadJSONL(&out)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Truncated || len(tr.Events) != len(want) || tr.Total != sum.Total || tr.Dropped != sum.Dropped {
			t.Fatalf("read back truncated=%v events=%d total=%d dropped=%d, want false/%d/%d/%d",
				tr.Truncated, len(tr.Events), tr.Total, tr.Dropped, len(want), sum.Total, sum.Dropped)
		}
	})
}

// fuzzTimeline drives a timeline from data: each byte is one trial's
// counter increment, with window size and ring capacity from the first
// bytes, so the fuzzer reaches dropped windows and ragged chunks.
func fuzzTimeline(data []byte) *Timeline {
	data = fuzzGen(data, 8)
	cfg := TimelineConfig{WindowTrials: 1, Cap: 1}
	if len(data) > 1 {
		cfg.WindowTrials += int(data[0] % 4)
		cfg.Cap += int(data[1] % 5)
	}
	reg := NewRegistry()
	c := reg.Counter("work.units")
	h := reg.Histogram("work.size", Exp2Bounds(1, 4))
	tl := NewTimeline(reg, cfg)
	tl.BeginSegment()
	for i, b := range data {
		c.Add(int64(b))
		h.Observe(int64(b))
		tl.NoteTrials(i, i+1)
	}
	tl.Flush()
	return tl
}

func FuzzReadTimelineLog(f *testing.F) {
	for _, seed := range [][]byte{nil, {1, 2, 3}, {0, 0, 7, 7, 7, 7, 7, 7, 7, 7, 7}, []byte("timeline seed")} {
		var buf bytes.Buffer
		if err := fuzzTimeline(seed).WriteJSONLFailed(&buf, ""); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	// A wall-clock window line, a kind this reader refuses.
	f.Add([]byte(`{"kind":"wall","seq":0,"done_start":0,"done_end":4,"wall_ms":12,"dur_ms":3,"delta":{}}` + "\n" +
		`{"kind":"tl_summary","retained":1,"total":1,"dropped":0,"window_trials":4}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ReadTimelineLog(bytes.NewReader(data)) // must not panic

		tl := fuzzTimeline(data)
		var buf bytes.Buffer
		if err := tl.WriteJSONLFailed(&buf, ""); err != nil {
			t.Fatal(err)
		}
		out := buf.Bytes()
		log, err := ReadTimelineLog(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("writer output unreadable: %v", err)
		}
		wins := tl.Windows()
		got, _ := json.Marshal(log.Windows)
		want, _ := json.Marshal(wins)
		if log.Truncated || log.Total != tl.Total() || log.Dropped != tl.Dropped() ||
			log.WindowTrials != tl.Config().WindowTrials || len(log.Windows) != len(wins) ||
			len(wins) > 0 && !bytes.Equal(got, want) {
			t.Fatalf("writer output read back changed:\ngot  %s\nwant %s", got, want)
		}
		for n := 0; n < len(out); n++ {
			if p, err := ReadTimelineLog(bytes.NewReader(out[:n])); err == nil && !p.Truncated {
				t.Fatalf("%d-byte prefix of a %d-byte export read as complete", n, len(out))
			}
		}
	})
}

// FuzzAppendEventJSON holds the trace export's hand-written event line
// to encoding/json's: for any strings — control bytes, HTML
// metacharacters, U+2028 and U+2029 and invalid UTF-8 among the seeds —
// and any field values, zero or not, appendEventJSON must write the bytes
// json.Encoder.Encode writes for the event.
func FuzzAppendEventJSON(f *testing.F) {
	f.Add("round", "fig5/d=3/run=2", "", int64(1), int64(2), int64(-3), uint16(0))
	f.Add("", "<a&b>\u2028\u2029", "ok\x00\x1f\x7f\b\f\n\r\t\"\\", int64(math.MaxInt64), int64(math.MinInt64), int64(0), uint16(0x5555))
	f.Add("\xff\xfe", "é\xc3(", "\u00e9\U0001F600\xed\xa0\x80", int64(-1), int64(1<<40), int64(7), uint16(0xaaaa))
	f.Add("symbol", "coding/pf=office/tr=3", "erased", int64(12), int64(0), int64(300), uint16(0xffff))
	f.Fuzz(func(t *testing.T, kind, labels, outcome string, a, b, c int64, zero uint16) {
		v := func(i int) int64 {
			if zero>>i&1 != 0 {
				return 0
			}
			return [3]int64{a, b, c}[i%3] ^ int64(i)
		}
		e := Event{
			Kind: kind, Trial: int(v(0)), Labels: labels, Round: int(v(1)),
			Detected: v(2)&1 != 0, BALost: v(3)&1 != 0,
			Bits: int(v(4)), BitErrors: int(v(5)), AirtimeUs: v(6), SNRmDb: v(7),
			Offset: int(v(8)), Length: int(v(9)), Level: int(v(10)), Outcome: outcome,
			Delivered: v(11)&1 != 0, Rounds: int(v(12)), Retries: int(v(13)),
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&e); err != nil {
			t.Fatal(err)
		}
		if got := appendEventJSON(nil, &e); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("event %+v:\nappender %s\nencoder  %s", e, got, want.Bytes())
		}
	})
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadRequest feeds arbitrary bytes to the live surface's request
// reader, as a client would send them before closing its side. It must
// never panic and never read past the head cap plus the body it accepts;
// and every request must get an answer, a route or a refusal with a
// status the responder knows, or, only when nothing at all was sent, a
// closed connection.
func FuzzReadRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /status HTTP/1.1\r\nHost: localhost:9090\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n",
		"GET /timeseries?last=5 HTTP/1.1\r\n\r\n",
		"HEAD /healthz HTTP/1.0\r\n\r\n",
		"POST /debug/pprof/symbol HTTP/1.1\r\nContent-Length: 17\r\n\r\n0x401000+0x402000",
		"GET / HTTP/1.1\r\nX-Big: " + strings.Repeat("a", maxHead) + "\r\n\r\n",
		"GET /metrics HTTP/1.1\nHost: x\n\n",
		"\n",
		"GET /status\r\n\r\n",
		"GET /sta\x00tus HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\nX: a\x00b\r\n\r\n",
		"POST /debug/pprof/symbol HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"POST /debug/pprof/symbol HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n0x1",
		"GET /status HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"PUT /debug/pprof/symbol HTTP/1.1\r\n\r\n",
		"GET http://localhost HTTP/2.0\r\n\r\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		cr := &countingReader{r: strings.NewReader(in)}
		req, err := readRequest(cr)
		var refused *statusError
		switch {
		case err == nil:
			if cr.n > maxHead+len(req.body) {
				t.Fatalf("read %d bytes for a %d-byte body, past the %d-byte head cap", cr.n, len(req.body), maxHead)
			}
			symbolPost := req.method == "POST" && req.path == symbolPath
			if req.method != "GET" && req.method != "HEAD" && !symbolPost {
				t.Fatalf("accepted method %q on %q", req.method, req.path)
			}
			if req.path == "" || (len(req.body) > 0 && !symbolPost) || len(req.body) > maxSymbolBody {
				t.Fatalf("accepted %s %q with a %d-byte body", req.method, req.path, len(req.body))
			}
		case errors.As(err, &refused):
			if cr.n > maxHead+maxSymbolBody {
				t.Fatalf("read %d bytes before refusing", cr.n)
			}
			if strings.HasPrefix(statusText(refused.status), "Status ") || refused.status < 400 {
				t.Fatalf("refused with unknown status %d: %v", refused.status, err)
			}
			if (refused.status == 405) != (refused.allow != "") {
				t.Fatalf("status %d with Allow %q", refused.status, refused.allow)
			}
		default:
			if in != "" {
				t.Fatalf("%d bytes sent but neither answered nor refused: %v", len(in), err)
			}
		}
	})
}
