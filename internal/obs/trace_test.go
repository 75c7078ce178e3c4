package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func TestRecorderRetainsInOrder(t *testing.T) {
	r := NewRecorder(8)
	for i := 1; i <= 5; i++ {
		r.Record(Event{Kind: "round", Round: i})
	}
	ev := r.Events()
	if len(ev) != 5 || r.total != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d total=%d dropped=%d", len(ev), r.total, r.Dropped())
	}
	for i, e := range ev {
		if e.Round != i+1 {
			t.Fatalf("event %d has round %d", i, e.Round)
		}
	}
}

func TestRecorderWrapsOverwritingOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(Event{Kind: "round", Round: i})
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Round != 7+i {
			t.Fatalf("retained rounds %v, want 7..10", ev)
		}
	}
	if r.total != 10 || r.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", r.total, r.Dropped())
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: "round"})
	if r.Len() != 0 || r.Events() != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder should ignore everything")
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{Kind: "round", Trial: 3, Labels: "fig5/d=3/run=2", Round: 1, Detected: true, Bits: 64, BitErrors: 2, AirtimeUs: 1234, SNRmDb: 21500})
	r.Record(Event{Kind: "segment", Offset: 48, Length: 16, Level: 2, Outcome: "frame_error"})
	r.Record(Event{Kind: "transfer", Delivered: true, Rounds: 9, Retries: 1, AirtimeUs: 99999})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var kinds []string
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, e.Kind)
	}
	want := []string{"round", "segment", "transfer", "summary"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}

	// ReadJSONL(WriteJSONL(x)) == x: events, total and dropped all survive.
	tr, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Events, r.Events()) {
		t.Fatalf("decoded events differ:\ngot  %+v\nwant %+v", tr.Events, r.Events())
	}
	if tr.Total != r.total || tr.Dropped != r.Dropped() || tr.Truncated {
		t.Fatalf("total=%d dropped=%d truncated=%v, want %d/%d/false", tr.Total, tr.Dropped, tr.Truncated, r.total, r.Dropped())
	}
	if tr.Clipped() {
		t.Fatal("complete un-wrapped trace reported clipped")
	}
}

// TestFailureStampRoundTrips checks the failure stamp on both exports'
// summary records: absent from a passing run's bytes, read back from a
// failed run's.
func TestFailureStampRoundTrips(t *testing.T) {
	r := NewRecorder(4)
	r.Record(Event{Kind: "round", Round: 1})
	tl := NewTimeline(NewRegistry(), TimelineConfig{})
	for _, failure := range []string{"", "fig6: a run hit BER 0.48"} {
		var tb, lb bytes.Buffer
		if err := r.WriteJSONLFailed(&tb, failure); err != nil {
			t.Fatal(err)
		}
		if err := tl.WriteJSONLFailed(&lb, failure); err != nil {
			t.Fatal(err)
		}
		if failure == "" && (bytes.Contains(tb.Bytes(), []byte(`"error"`)) || bytes.Contains(lb.Bytes(), []byte(`"error"`))) {
			t.Fatalf("a passing export carries an error key:\n%s%s", tb.Bytes(), lb.Bytes())
		}
		tr, err := ReadJSONL(&tb)
		if err != nil {
			t.Fatal(err)
		}
		log, err := ReadTimelineLog(&lb)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Error != failure || log.Error != failure || tr.Truncated || log.Truncated {
			t.Fatalf("stamp %q read back as trace %q, timeline %q", failure, tr.Error, log.Error)
		}
	}
}

func TestReadJSONLSurfacesDroppedCounts(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(Event{Kind: "round", Round: i})
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 4 || tr.Total != 10 || tr.Dropped != 6 {
		t.Fatalf("events=%d total=%d dropped=%d, want 4/10/6", len(tr.Events), tr.Total, tr.Dropped)
	}
	if !tr.Clipped() {
		t.Fatal("wrapped ring must report clipped")
	}
}

func TestReadJSONLToleratesTruncatedTail(t *testing.T) {
	r := NewRecorder(16)
	for i := 1; i <= 5; i++ {
		r.Record(Event{Kind: "round", Round: i})
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut the file mid-way through its final (summary) line: the decode
	// must succeed, keep every complete event, and report Truncated.
	cut := full[:len(full)-10]
	tr, err := ReadJSONL(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail should decode, got %v", err)
	}
	if !tr.Truncated || !tr.Clipped() {
		t.Fatal("truncated file must report Truncated")
	}
	if len(tr.Events) != 5 || tr.Total != 5 || tr.Dropped != 0 {
		t.Fatalf("events=%d total=%d dropped=%d, want 5/5/0", len(tr.Events), tr.Total, tr.Dropped)
	}

	// Cut mid-way through an event line: the partial event is discarded,
	// the complete prefix survives.
	lines := bytes.SplitAfter(full, []byte("\n"))
	partial := bytes.Join(lines[:3], nil)
	partial = append(partial, lines[3][:len(lines[3])/2]...)
	tr, err = ReadJSONL(bytes.NewReader(partial))
	if err != nil {
		t.Fatalf("truncated event tail should decode, got %v", err)
	}
	if !tr.Truncated || len(tr.Events) != 3 {
		t.Fatalf("truncated=%v events=%d, want true/3", tr.Truncated, len(tr.Events))
	}
}

func TestReadJSONLRejectsMidStreamGarbage(t *testing.T) {
	in := `{"kind":"round","round":1}
not json at all
{"kind":"round","round":2}
`
	if _, err := ReadJSONL(bytes.NewReader([]byte(in))); err == nil {
		t.Fatal("mid-stream garbage must be an error, not truncation")
	}
}

func TestReadJSONLMissingSummaryIsTruncated(t *testing.T) {
	in := `{"kind":"round","round":1}
{"kind":"round","round":2}
`
	tr, err := ReadJSONL(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Truncated || len(tr.Events) != 2 || tr.Total != 2 || tr.Dropped != 0 {
		t.Fatalf("truncated=%v events=%d total=%d dropped=%d", tr.Truncated, len(tr.Events), tr.Total, tr.Dropped)
	}
}

func TestReadJSONLEventsAfterSummaryAreTruncated(t *testing.T) {
	// A file appended to after export: the old summary no longer covers
	// the tail, so the trace must not claim completeness.
	in := `{"kind":"round","round":1}
{"kind":"summary","retained":1,"total":1,"dropped":0}
{"kind":"round","round":2}
`
	tr, err := ReadJSONL(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Truncated || len(tr.Events) != 2 {
		t.Fatalf("truncated=%v events=%d, want true/2", tr.Truncated, len(tr.Events))
	}
}

func TestReadJSONLEmptyRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRecorder(4).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 0 || tr.Total != 0 || tr.Dropped != 0 || tr.Truncated {
		t.Fatalf("empty export decoded to %+v", tr)
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(Event{Kind: "round", Trial: w, Round: i})
			}
		}(w)
	}
	wg.Wait()
	if r.total != 8000 || r.Len() != 64 || r.Dropped() != 8000-64 {
		t.Fatalf("total=%d len=%d dropped=%d", r.total, r.Len(), r.Dropped())
	}
	if err := r.WriteJSONL(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// fullEvent returns an event with all 17 fields set from i. Its strings
// cycle through a few values, as real labels do, including the empty
// string and text that JSON must escape.
func fullEvent(i int) Event {
	strs := []string{"", "round", "fig5/d=3/run=2", "quote\" and \\ back\nslash", "<html> & \u2028 \x01", "ünï\tcode"}
	return Event{
		Kind: strs[i%len(strs)], Trial: i, Labels: strs[(i+1)%len(strs)], Round: i + 1,
		Detected: i%2 == 0, BALost: i%3 == 0, Bits: 64 + i, BitErrors: i % 5,
		AirtimeUs: int64(i) * 1234, SNRmDb: -int64(i) * 7, Offset: i * 16, Length: 16 + i%3,
		Level: i % 4, Outcome: strs[(i+2)%len(strs)], Delivered: i%5 == 0,
		Rounds: i % 9, Retries: i % 2,
	}
}

// TestRecorderRoundTripsEveryField wraps rings of a one-chunk and a
// multi-chunk capacity 1, 2 and 4 times, and checks that the export
// decodes to exactly the last capacity events recorded and that the ring
// holds no more chunks than checkChunkBound allows.
func TestRecorderRoundTripsEveryField(t *testing.T) {
	if n := reflect.TypeOf(Event{}).NumField(); n != 17 {
		t.Fatalf("Event has %d fields; extend fullEvent, encode and decode", n)
	}
	for _, capacity := range []int{5, 3*chunkBytes/40 + 7} {
		for _, laps := range []int{1, 2, 4} {
			for _, extra := range []int{0, capacity / 3} {
				n := laps*capacity + extra
				r := NewRecorder(capacity)
				all := make([]Event, n)
				for i := range all {
					all[i] = fullEvent(i)
					r.Record(all[i])
				}
				want := all[n-capacity:]
				if got := r.Events(); !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d, %d events: Events differ", capacity, n)
				}
				var buf bytes.Buffer
				if err := r.WriteJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				tr, err := ReadJSONL(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tr.Events, want) {
					t.Fatalf("cap %d, %d events: exported events differ", capacity, n)
				}
				if tr.Total != uint64(n) || tr.Dropped != uint64(n-capacity) || tr.Truncated {
					t.Fatalf("cap %d, %d events: total=%d dropped=%d truncated=%v", capacity, n, tr.Total, tr.Dropped, tr.Truncated)
				}
				checkChunkBound(t, r)
			}
		}
	}
}

// TestRecorderResetReadsLikeFresh checks that Reset empties the string
// table and that a reset ring exports the same bytes as a fresh one.
func TestRecorderResetReadsLikeFresh(t *testing.T) {
	const capacity = 9
	used := NewRecorder(capacity)
	for i := 0; i < 3*capacity+2; i++ {
		used.Record(fullEvent(i + 100))
	}
	used.Record(Event{Kind: "only-before-reset", Labels: "gone"})
	used.Reset()
	if len(used.strs) != 0 || len(used.ids) != 0 {
		t.Fatalf("string table after Reset: %d strings, %d ids", len(used.strs), len(used.ids))
	}
	fresh := NewRecorder(capacity)
	for i := 0; i < capacity+4; i++ {
		used.Record(fullEvent(i))
		fresh.Record(fullEvent(i))
	}
	var a, b bytes.Buffer
	if err := used.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("reset export differs from fresh:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
	if !reflect.DeepEqual(used.strs, fresh.strs) {
		t.Fatalf("string tables differ: %q vs %q", used.strs, fresh.strs)
	}
}

// checkChunkBound checks the ring's bookkeeping and its memory bound.
// Every chunk the ring keeps, retained or free, was once retained, and a
// retained chunk holds at least one retained record. Every retained chunk
// but the oldest and the newest is filled to within one record of its
// size, so at most 2 + capacity·maxRecordBytes/(chunkSize−maxRecordBytes+1)
// chunks were ever retained at once.
func checkChunkBound(t testing.TB, r *Recorder) {
	t.Helper()
	held := len(r.chunks) + len(r.free)
	if bound := min(r.cap, 2+r.cap*maxRecordBytes/(r.chunkSize-maxRecordBytes+1)); held > bound {
		t.Fatalf("cap %d: ring holds %d chunks of %d bytes, want <= %d", r.cap, held, r.chunkSize, bound)
	}
	n := -r.skip
	for _, c := range r.chunks {
		if c.n == 0 || len(c.buf) > r.chunkSize || cap(c.buf) != r.chunkSize {
			t.Fatalf("chunk of %d records, %d bytes, capacity %d; chunk size %d", c.n, len(c.buf), cap(c.buf), r.chunkSize)
		}
		n += c.n
	}
	if n != r.n || len(r.chunks) > 0 && r.skip >= r.chunks[0].n {
		t.Fatalf("chunks hold %d retained records with %d skipped, ring counts %d", n, r.skip, r.n)
	}
}

// ringBytes returns the bytes of every chunk the ring keeps.
func ringBytes(r *Recorder) int {
	return (len(r.chunks) + len(r.free)) * r.chunkSize
}

// roundEvent returns the i-th of a coding campaign's round events.
func roundEvent(i int) Event {
	return Event{Kind: "round", Trial: i / 300, Labels: "coding/rs/office/run=3", Round: i, Detected: true, Bits: 64, AirtimeUs: 1234, SNRmDb: 21500}
}

// TestRecorderFootprint bounds what a retained event costs on the heap,
// for a campaign's round events and for events with every field set, and
// checks that recording into a ring that has recycled its head chunks
// allocates nothing.
func TestRecorderFootprint(t *testing.T) {
	const capacity = 1 << 15
	for _, c := range []struct {
		name  string
		event func(int) Event
		limit float64
	}{
		{"round", roundEvent, 24},
		{"full", fullEvent, 48},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := NewRecorder(capacity)
		for i := 0; i < 2*capacity; i++ {
			r.Record(c.event(i))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perEvent := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / capacity
		t.Logf("%s: %.1f heap bytes per retained event (%d chunk bytes)", c.name, perEvent, ringBytes(r))
		if perEvent > c.limit {
			t.Errorf("%s: retained event costs %.1f heap bytes, want <= %v", c.name, perEvent, c.limit)
		}
		if r.Dropped() == 0 || len(r.free) == 0 && r.skip == 0 {
			t.Fatalf("%s: the ring never recycled a head chunk", c.name)
		}
		e := c.event(7)
		if allocs := testing.AllocsPerRun(1000, func() { r.Record(e) }); allocs != 0 {
			t.Errorf("%s: Record into a full ring allocates %v times per call", c.name, allocs)
		}
	}
}

// TestWriteJSONLCopiesNoRing checks that exporting allocates far less
// than one copy of the ring as Events would take.
func TestWriteJSONLCopiesNoRing(t *testing.T) {
	if raceEnabled {
		t.Skip("encoding/json's pooled state is dropped at random under -race")
	}
	const capacity = 1 << 15
	r := NewRecorder(capacity)
	for i := 0; i < capacity+10; i++ {
		r.Record(fullEvent(i))
	}
	if err := r.WriteJSONL(io.Discard); err != nil { // warm the encoder's pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.WriteJSONL(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	limit := uint64(capacity) * uint64(unsafe.Sizeof(Event{})) / 4
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("WriteJSONL allocated %d bytes for %d events", got, capacity)
	if got >= limit {
		t.Fatalf("WriteJSONL allocated %d bytes, want < %d", got, limit)
	}
}

func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(1 << 16)
	e := Event{Kind: "round", Trial: 1, Round: 2, Detected: true, AirtimeUs: 1234}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
	b.ReportMetric(float64(ringBytes(r))/float64(r.Len()), "B/event")
}

func BenchmarkRecorderWriteJSONL(b *testing.B) {
	r := NewRecorder(1 << 16)
	for i := 0; i < 1<<16; i++ {
		r.Record(roundEvent(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	_ = fmt.Sprint(c.Value())
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.hist", Exp2Bounds(1, 16))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			h.Observe(i & 0xFFFF)
			i++
		}
	})
}
