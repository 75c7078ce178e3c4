package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// simTrials drives a timeline the way sim.Runner does: BeginSegment once
// per Each call, then chunked execution bounded by ChunkLimit with the
// per-trial work (here: deterministic counter increments) done before
// each NoteTrials barrier.
func simTrials(t *testing.T, tl *Timeline, c *Counter, n, perTrial int) {
	t.Helper()
	tl.BeginSegment()
	for lo := 0; lo < n; {
		hi := lo + tl.ChunkLimit()
		if hi > n || hi <= lo {
			hi = n
		}
		c.Add(int64((hi - lo) * perTrial))
		tl.NoteTrials(lo, hi)
		lo = hi
	}
}

func TestTimelineLogicalWindowsCloseEveryWindowTrials(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 4})

	simTrials(t, tl, c, 10, 10)
	// 10 trials at window 4: two closed windows, 2 trials pending.
	if got := tl.Total(); got != 2 {
		t.Fatalf("Total = %d, want 2 closed windows", got)
	}
	if lim := tl.ChunkLimit(); lim != 2 {
		t.Fatalf("ChunkLimit = %d, want 2 (window 4, 2 pending)", lim)
	}
	tl.Flush()
	wins := tl.Windows()
	if len(wins) != 3 {
		t.Fatalf("after Flush: %d windows, want 3", len(wins))
	}
	wantTrials := []int64{4, 4, 2}
	var doneStart int64
	for i, w := range wins {
		if w.Kind != WindowLogical {
			t.Errorf("window %d kind %q, want logical", i, w.Kind)
		}
		if w.Seq != i {
			t.Errorf("window %d Seq = %d", i, w.Seq)
		}
		if w.DoneStart != doneStart || w.DoneEnd-w.DoneStart != wantTrials[i] {
			t.Errorf("window %d spans [%d,%d), want start %d width %d",
				i, w.DoneStart, w.DoneEnd, doneStart, wantTrials[i])
		}
		doneStart = w.DoneEnd
		if got, want := w.Delta.Counters["work.units"], 10*wantTrials[i]; got != want {
			t.Errorf("window %d delta = %d, want %d", i, got, want)
		}
	}
	// Flushing with nothing pending is a no-op.
	tl.Flush()
	if got := tl.Total(); got != 3 {
		t.Fatalf("idempotent Flush: Total = %d, want 3", got)
	}
}

func TestTimelineSpansTrackSegmentsAcrossEachCalls(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 4})

	// Two Each calls: 6 then 3 trials. Window 2 straddles the boundary:
	// trials [4,6) of segment 1 plus [0,2) of segment 2.
	simTrials(t, tl, c, 6, 1)
	simTrials(t, tl, c, 3, 1)
	tl.Flush()

	wins := tl.Windows()
	if len(wins) != 3 {
		t.Fatalf("%d windows, want 3", len(wins))
	}
	wantSpans := [][]TrialSpan{
		{{Seg: 1, Lo: 0, Hi: 4}},
		{{Seg: 1, Lo: 4, Hi: 6}, {Seg: 2, Lo: 0, Hi: 2}},
		{{Seg: 2, Lo: 2, Hi: 3}},
	}
	for i, w := range wins {
		if !reflect.DeepEqual(w.Spans, wantSpans[i]) {
			t.Errorf("window %d spans = %+v, want %+v", i, w.Spans, wantSpans[i])
		}
	}
	// Span lookup is by index across segments: trial 1 appears in both,
	// in windows 0 and 1; trial 2 only in segment 1's first span.
	straddle := wins[1].Spans
	if !wins[0].Spans[0].Contains(1) || !straddle[1].Contains(1) || straddle[1].Contains(2) {
		t.Errorf("Contains misses: %+v %+v", wins[0].Spans, straddle)
	}
	if straddle[0].Contains(6) || !straddle[0].Contains(4) {
		t.Errorf("Contains must cover [Lo, Hi): %+v", straddle[0])
	}
}

func TestTimelineLogicalDeltasAreDeterministicView(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	reg.Counter("wall.us", Volatile).Add(12345)
	h := reg.Histogram("lat", []int64{1, 2, 4, 8})
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 2})

	tl.BeginSegment()
	c.Add(2)
	h.Observe(3)
	h.Observe(5)
	reg.Counter("wall.us").Add(999)
	tl.NoteTrials(0, 2)

	wins := tl.Windows()
	if len(wins) != 1 {
		t.Fatalf("%d windows, want 1", len(wins))
	}
	d := wins[0].Delta
	if _, ok := d.Counters["wall.us"]; ok {
		t.Error("volatile counter leaked into a logical delta")
	}
	if got := d.Histograms["lat"].Quantile(1.0); got != 8 {
		t.Errorf("window p100(lat) = %d, want 8", got)
	}
	if got := d.Histograms["lat"].Quantile(0.5); got != 4 {
		t.Errorf("window p50(lat) = %d, want 4 (nearest-rank upper bound)", got)
	}
}

func TestTimelineRingDropsOldestAndCounts(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 1, Cap: 2})

	simTrials(t, tl, c, 5, 1)
	if got := tl.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	if got := tl.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	wins := tl.Windows()
	if len(wins) != 2 {
		t.Fatalf("retained %d windows, want 2", len(wins))
	}
	if wins[0].Seq != 3 || wins[1].Seq != 4 {
		t.Errorf("ring kept Seq %d,%d — want the newest (3,4)", wins[0].Seq, wins[1].Seq)
	}
}

func TestTimelineSeriesQueries(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 2})

	// Window deltas 2, 6, 12 over 2 trials each: rates 1, 3, 6.
	tl.BeginSegment()
	for i, add := range []int64{2, 6, 12} {
		c.Add(add)
		tl.NoteTrials(2*i, 2*i+2)
	}
	wins := tl.Windows()
	var deltas, missing []int64
	var rates []float64
	for _, w := range wins {
		deltas = append(deltas, w.Delta.Counters["work.units"])
		rates = append(rates, float64(w.Delta.Counters["work.units"])/float64(w.DoneEnd-w.DoneStart))
		missing = append(missing, w.Delta.Counters["nope"])
	}
	if !reflect.DeepEqual(deltas, []int64{2, 6, 12}) {
		t.Errorf("counter delta per window = %v", deltas)
	}
	if !reflect.DeepEqual(rates, []float64{1, 3, 6}) {
		t.Errorf("Rate per window = %v", rates)
	}
	if !reflect.DeepEqual(missing, []int64{0, 0, 0}) {
		t.Errorf("missing counter deltas = %v, want zeros", missing)
	}
}

func TestTimelineJSONLRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	reg.Histogram("lat", []int64{1, 2, 4}).Observe(3)
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 3, Cap: 2})

	simTrials(t, tl, c, 10, 7)
	tl.Flush() // windows: 4 total, ring keeps 2

	var buf bytes.Buffer
	if err := tl.WriteJSONLFailed(&buf, ""); err != nil {
		t.Fatal(err)
	}
	log, err := ReadTimelineLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Error("complete file read back as Truncated")
	}
	if log.Total != 4 || log.Dropped != 2 || log.WindowTrials != 3 {
		t.Errorf("summary = total %d dropped %d window %d, want 4/2/3",
			log.Total, log.Dropped, log.WindowTrials)
	}
	if !reflect.DeepEqual(log.Windows, tl.Windows()) {
		t.Errorf("windows did not round-trip:\n got %+v\nwant %+v", log.Windows, tl.Windows())
	}
	// Exports from before the gauge instrument was removed carry an
	// always-empty "gauges" key in every delta; they read back the same.
	old := strings.ReplaceAll(buf.String(), `"delta":{`, `"delta":{"gauges":{},`)
	if old == buf.String() {
		t.Fatal("no delta to add a gauges key to")
	}
	if log, err := ReadTimelineLog(strings.NewReader(old)); err != nil || !reflect.DeepEqual(log.Windows, tl.Windows()) {
		t.Errorf("an export with a gauges key read back as %+v, %v", log, err)
	}
}

func TestReadTimelineLogToleratesTruncatedTail(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 2})
	simTrials(t, tl, c, 6, 1)

	var buf bytes.Buffer
	if err := tl.WriteJSONLFailed(&buf, ""); err != nil {
		t.Fatal(err)
	}
	full := buf.String()

	// Chop mid-summary: the windows survive, the log is marked truncated
	// with lower-bound accounting.
	cut := full[:strings.LastIndex(strings.TrimRight(full, "\n"), "\n")+12]
	log, err := ReadTimelineLog(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail must not error: %v", err)
	}
	if !log.Truncated {
		t.Error("chopped file not marked Truncated")
	}
	if len(log.Windows) != 3 || log.Total != 3 || log.WindowTrials != 0 {
		t.Errorf("truncated accounting: %d windows, total %d, window_trials %d",
			len(log.Windows), log.Total, log.WindowTrials)
	}

	// Garbage before the final line is corruption, not truncation.
	lines := strings.Split(strings.TrimRight(full, "\n"), "\n")
	lines[0] = lines[0][:10]
	if _, err := ReadTimelineLog(strings.NewReader(strings.Join(lines, "\n"))); err == nil {
		t.Error("mid-file corruption must error")
	}

	// A summary followed by more windows means the summary is stale.
	stale := full + lines[1] + "\n"
	log, err = ReadTimelineLog(strings.NewReader(stale))
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated {
		t.Error("windows after the summary must mark the log Truncated")
	}
}

func TestReadTimelineLogRejectsUnknownKind(t *testing.T) {
	reg := NewRegistry()
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 2})
	simTrials(t, tl, reg.Counter("work.units"), 4, 1)
	var buf bytes.Buffer
	if err := tl.WriteJSONLFailed(&buf, ""); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"wall", "bogus", ""} {
		line := `{"kind":"` + kind + `","seq":0,"done_start":0,"done_end":2,"delta":{}}` + "\n"
		// Before the last line it is corruption, named by line and kind.
		_, err := ReadTimelineLog(strings.NewReader(line + buf.String()))
		if err == nil || !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), `"`+kind+`"`) {
			t.Errorf("kind %q: err = %v, want an error naming line 1 and the kind", kind, err)
		}
		// As the last line it is a damaged tail: never counted as a window.
		log, err := ReadTimelineLog(strings.NewReader(buf.String() + line))
		if err != nil || !log.Truncated || len(log.Windows) != 2 {
			t.Errorf("kind %q as the tail: %+v, %v, want 2 windows, Truncated", kind, log, err)
		}
	}
}

func TestTimelineNilSafety(t *testing.T) {
	var tl *Timeline
	tl.BeginSegment()
	tl.NoteTrials(0, 4)
	tl.Flush()
	if tl.Windows() != nil {
		t.Error("nil timeline Windows() != nil")
	}
	if tl.ChunkLimit() != 0 {
		t.Error("nil timeline ChunkLimit() != 0")
	}
}

func TestTimelineWindowJSONShape(t *testing.T) {
	// Windows carry no wall-clock field at all: the JSONL determinism
	// guarantee depends on it.
	w := TimelineWindow{Kind: WindowLogical, Seq: 0, DoneEnd: 4, Delta: emptySnapshot().Deterministic()}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"wall_ms", "dur_ms", "volatile"} {
		if bytes.Contains(raw, []byte(field)) {
			t.Errorf("logical window JSON carries %q: %s", field, raw)
		}
	}
}
