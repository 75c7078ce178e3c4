package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("re-registration returned a different counter")
	}

	// Nil instruments are inert, not panics.
	var nc *Counter
	nc.Inc()
	var nh *Histogram
	nh.Observe(1)
	if nc.Value() != 0 || nh.Snapshot().Count != 0 {
		t.Fatal("nil instruments should read zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	want := []int64{2, 2, 0, 1} // ≤10: {5,10}; ≤100: {11,100}; ≤1000: none; overflow: {5000}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 5 || s.Sum != 5+10+11+100+5000 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
}

func TestExp2Bounds(t *testing.T) {
	got := Exp2Bounds(256, 4)
	want := []int64{256, 512, 1024, 2048}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Exp2Bounds = %v, want %v", got, want)
	}
}

// Concurrent hammering from many goroutines must sum exactly — the
// property the worker-count determinism contract leans on. Run under
// -race by make check.
func TestConcurrentUpdatesSumExactly(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", Exp2Bounds(1, 8))
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i % 300))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Snapshot().Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Snapshot().Count, workers*per)
	}
}

func TestSnapshotDeltaAndDeterministic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("work.items")
	wall := r.Histogram("work.wall_ms", Exp2Bounds(1, 4), Volatile)

	c.Add(3)
	wall.Observe(7)
	before := r.Snapshot()
	c.Add(5)
	wall.Observe(9)
	after := r.Snapshot()

	d := after.Delta(before)
	if d.Counters["work.items"] != 5 {
		t.Fatalf("delta counter = %d, want 5", d.Counters["work.items"])
	}
	if d.Histograms["work.wall_ms"].Count != 1 {
		t.Fatalf("delta hist count = %d, want 1", d.Histograms["work.wall_ms"].Count)
	}

	det := after.Deterministic()
	if _, ok := det.Histograms["work.wall_ms"]; ok {
		t.Fatal("volatile histogram leaked into deterministic view")
	}
	if det.Counters["work.items"] != 8 {
		t.Fatalf("deterministic counter = %d, want 8", det.Counters["work.items"])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.rounds").Add(42)
	h := r.Histogram("core.round_airtime_us", []int64{100, 200})
	h.Observe(50)
	h.Observe(150)
	h.Observe(900)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE witag_core_rounds counter\nwitag_core_rounds 42\n",
		`witag_core_round_airtime_us_bucket{le="100"} 1`,
		`witag_core_round_airtime_us_bucket{le="200"} 2`,
		`witag_core_round_airtime_us_bucket{le="+Inf"} 3`,
		"witag_core_round_airtime_us_sum 1100",
		"witag_core_round_airtime_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Stable ordering: identical snapshots serialise identically.
	var buf2 bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("prometheus serialisation is not stable")
	}
}

func TestPromNameEscapesIllegalRunes(t *testing.T) {
	cases := map[string]string{
		"core.rounds":         "witag_core_rounds",
		"link.retries.p99":    "witag_link_retries_p99",
		"weird-name/with 8µs": "witag_weird_name_with_8__s", // µ is 2 UTF-8 bytes, both escaped
		"UPPER.Case:ok":       "witag_UPPER_Case:ok",
		"":                    "witag_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}

	// An escaped name must round-trip through the exposition writer
	// without producing an illegal metric line.
	r := NewRegistry()
	r.Counter("bad name.with-dashes").Add(1)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "witag_bad_name_with_dashes 1\n") {
		t.Fatalf("escaped counter missing from output:\n%s", buf.String())
	}
}

func TestSnapshotDeltaOnEmptyRegistry(t *testing.T) {
	r := NewRegistry()
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("empty registry snapshot not empty: %+v", s)
	}

	// Delta of two empty snapshots, and against a populated one, must not
	// panic and must stay well-formed (maps allocated, not nil).
	d := s.Delta(s)
	if d.Counters == nil || d.Histograms == nil {
		t.Fatal("delta returned nil maps")
	}
	r2 := NewRegistry()
	r2.Counter("c").Add(3)
	if got := r2.Snapshot().Delta(s).Counters["c"]; got != 3 {
		t.Fatalf("delta against empty = %d, want 3", got)
	}
	if got := s.Delta(r2.Snapshot()).Counters["c"]; got != 0 {
		t.Fatalf("empty minus populated counter = %d, want 0 (absent)", got)
	}

	// Deterministic() of an empty snapshot is empty.
	if det := s.Deterministic(); len(det.Counters) != 0 || len(det.Histograms) != 0 {
		t.Fatalf("deterministic view of empty registry: %+v", det)
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 10, 50, 200, 900} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	// counts: ≤10 → 3, ≤100 → 1, ≤1000 → 2. Quantile returns bucket
	// upper bounds (conservative), so p50 lands in the first bucket.
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 10}, {0.5, 10}, {0.51, 100}, {0.67, 1000}, {0.99, 1000}, {1, 1000},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}

	// Overflow-only histogram: the largest finite bound is the best
	// available answer.
	r2 := NewRegistry()
	h2 := r2.Histogram("h2", []int64{10})
	h2.Observe(99)
	if got := r2.Snapshot().Histograms["h2"].Quantile(0.5); got != 10 {
		t.Fatalf("overflow quantile = %d, want 10", got)
	}

	// Empty histogram reads zero.
	if got := (HistogramSnapshot{}).Quantile(0.9); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
}

func TestObserverWiresEveryView(t *testing.T) {
	o := NewObserver(NewRegistry(), nil)
	if o.Core == nil || o.Link == nil || o.Fault == nil || o.Runner == nil {
		t.Fatal("observer left a view nil")
	}
	o.Core.Rounds.Inc()
	o.Link.SegmentsSent.Inc()
	o.Fault.BALosses.Inc()
	o.Runner.TrialsDone.Inc()
	s := o.Registry.Snapshot()
	for _, name := range []string{"core.rounds", "link.segments_sent", "fault.ba_losses", "runner.trials_done"} {
		if s.Counters[name] != 1 {
			t.Fatalf("%s = %d, want 1", name, s.Counters[name])
		}
	}
	if !s.Volatile["runner.trial_wall_ms"] {
		t.Fatal("trial wall-time histogram must be volatile")
	}
}
