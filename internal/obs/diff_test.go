package obs

import "testing"

func diffFixture() Snapshot {
	return Snapshot{
		Counters: map[string]int64{
			"phy.rounds":     100,
			"gen.wall_polls": 7,
		},
		Histograms: map[string]HistogramSnapshot{
			"link.retries":  {Bounds: []int64{1, 2, 4}, Counts: []int64{5, 3, 1, 0}, Sum: 14, Count: 9},
			"trial_wall_ms": {Bounds: []int64{1, 2}, Counts: []int64{1, 1, 0}, Sum: 3, Count: 2},
		},
		Volatile: map[string]bool{"gen.wall_polls": true, "trial_wall_ms": true},
	}
}

func TestDiffDeterministicEqual(t *testing.T) {
	if d := DiffDeterministic(diffFixture(), diffFixture()); len(d) != 0 {
		t.Fatalf("identical snapshots diff: %+v", d)
	}
}

func TestDiffDeterministicCounterOffByOne(t *testing.T) {
	c := diffFixture()
	c.Counters["phy.rounds"]++
	d := DiffDeterministic(diffFixture(), c)
	if len(d) != 1 || d[0].Kind != "counter" || d[0].Name != "phy.rounds" {
		t.Fatalf("want exactly the phy.rounds counter diff, got %+v", d)
	}
	if d[0].Base != 100 || d[0].Cand != 101 {
		t.Fatalf("diff values wrong: %+v", d[0])
	}
}

func TestDiffDeterministicIgnoresVolatile(t *testing.T) {
	c := diffFixture()
	c.Counters["gen.wall_polls"] = 9999 // volatile counter
	h := c.Histograms["trial_wall_ms"]  // volatile histogram
	h.Sum = 500
	c.Histograms["trial_wall_ms"] = h
	if d := DiffDeterministic(diffFixture(), c); len(d) != 0 {
		t.Fatalf("volatile changes leaked into the deterministic diff: %+v", d)
	}
}

func TestDiffDeterministicHistogram(t *testing.T) {
	c := diffFixture()
	h := c.Histograms["link.retries"]
	h.Counts = append([]int64(nil), h.Counts...)
	h.Counts[1]++
	h.Count++
	h.Sum += 2
	c.Histograms["link.retries"] = h
	d := DiffDeterministic(diffFixture(), c)
	if len(d) != 1 || d[0].Kind != "histogram" || d[0].Name != "link.retries" {
		t.Fatalf("want the link.retries histogram diff, got %+v", d)
	}
	if d[0].Detail == "" {
		t.Fatal("histogram diff has no facet detail")
	}
}

func TestDiffDeterministicMissingInstrument(t *testing.T) {
	b, c := diffFixture(), diffFixture()
	delete(c.Counters, "phy.rounds")
	c.Counters["new.counter"] = 1
	d := DiffDeterministic(b, c)
	if len(d) != 2 {
		t.Fatalf("want 2 diffs, got %+v", d)
	}
	// Sorted by (kind, name): new.counter then phy.rounds.
	if d[0].Name != "new.counter" || d[0].Detail != "missing in baseline" {
		t.Errorf("diff[0] = %+v", d[0])
	}
	if d[1].Name != "phy.rounds" || d[1].Detail != "missing in candidate" {
		t.Errorf("diff[1] = %+v", d[1])
	}
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		q     float64
		count int64
		want  int64
	}{
		{0, 10, 1},   // q=0 clamps to the minimum
		{1, 10, 10},  // q=1 is the maximum
		{0.5, 10, 5}, // ceil(5.0)
		{0.5, 9, 5},  // ceil(4.5)
		{0.99, 8, 8}, // ceil(7.92)
		{0.25, 1, 1}, // single observation
		{-1, 10, 1},  // clamp below
		{2, 10, 10},  // clamp above
		{0.5, 0, 0},  // empty population
		{0.5, -3, 0}, // nonsense count
		{0.9, 100, 90},
	}
	for _, c := range cases {
		if got := NearestRank(c.q, c.count); got != c.want {
			t.Errorf("NearestRank(%v, %d) = %d, want %d", c.q, c.count, got, c.want)
		}
	}
}

func TestQuantileUsesNearestRank(t *testing.T) {
	h := HistogramSnapshot{Bounds: []int64{1, 2, 4, 8}, Counts: []int64{0, 2, 4, 2, 0}, Sum: 30, Count: 8}
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("p50 = %d, want 4", got)
	}
	if got := h.Quantile(0.99); got != 8 {
		t.Errorf("p99 = %d, want 8", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %d, want 0", got)
	}
}
