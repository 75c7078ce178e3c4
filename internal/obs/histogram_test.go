package obs

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// TestLanedHistogramMatchesSingleLane feeds the same observations to a
// single-lane histogram and to a laned one, spread over its lanes from
// concurrent writers, and requires every reader — snapshot, Count, Sum,
// Delta and the Prometheus text — to see identical state.
func TestLanedHistogramMatchesSingleLane(t *testing.T) {
	bounds := Exp2Bounds(256, 24)
	values := func(w int) []int64 {
		out := make([]int64, 0, 400)
		for i := 0; i < 400; i++ {
			out = append(out, int64((i*7919+w*104729)%(1<<26))-3) // includes negatives and overflow
		}
		return out
	}
	const writers = 11 // more writers than lanes: some lanes are shared
	build := func(lanes int, upto int) (*Registry, *Histogram) {
		reg := NewRegistry()
		h := reg.histogram("span.x_ns", bounds, lanes, Volatile)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, v := range values(w)[:upto] {
					h.observe(w%lanes, v)
				}
			}(w)
		}
		wg.Wait()
		return reg, h
	}
	oneReg, one := build(1, 400)
	lanedReg, laned := build(SpanLanes, 400)
	if got := len(laned.cells) / laned.stride; got != SpanLanes {
		t.Fatalf("laned histogram has %d lanes", got)
	}
	if a, b := one.Snapshot(), laned.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\nsingle: %+v\nlaned:  %+v", a, b)
	}
	if a, b := oneReg.Snapshot(), lanedReg.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatal("registry snapshots differ")
	}

	// Delta against an earlier cut.
	_, oneHalf := build(1, 150)
	_, lanedHalf := build(SpanLanes, 150)
	if a, b := oneHalf.Snapshot(), lanedHalf.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("partial snapshots differ:\nsingle: %+v\nlaned:  %+v", a, b)
	}
	wrap := func(h *Histogram) Snapshot {
		s := emptySnapshot()
		s.Histograms["span.x_ns"] = h.Snapshot()
		return s
	}
	if a, b := wrap(one).Delta(wrap(oneHalf)), wrap(laned).Delta(wrap(lanedHalf)); !reflect.DeepEqual(a, b) {
		t.Fatal("deltas differ")
	}

	var pa, pb bytes.Buffer
	if err := oneReg.Snapshot().WritePrometheus(&pa); err != nil {
		t.Fatal(err)
	}
	if err := lanedReg.Snapshot().WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if pa.String() != pb.String() {
		t.Fatalf("Prometheus output differs:\nsingle:\n%s\nlaned:\n%s", pa.String(), pb.String())
	}
	if !bytes.Contains(pa.Bytes(), []byte("_bucket")) {
		t.Fatal("Prometheus output has no buckets — vacuous comparison")
	}
}

// TestHistogramLanesDoNotShareCacheLines checks the laned layout: every
// lane holds count, sum and every bucket, and at least a cache line of
// padding separates consecutive lanes.
func TestHistogramLanesDoNotShareCacheLines(t *testing.T) {
	bounds := Exp2Bounds(256, 24)
	h := newHistogram(bounds, SpanLanes)
	words := len(bounds) + 3
	if h.stride < words+cacheLineWords {
		t.Fatalf("stride %d words leaves less than a cache line between %d-word lanes", h.stride, words)
	}
	if len(h.cells) != SpanLanes*h.stride {
		t.Fatalf("%d cells for %d lanes of stride %d", len(h.cells), SpanLanes, h.stride)
	}
	if single := newHistogram(bounds, 1); single.stride != words || len(single.cells)/single.stride != 1 {
		t.Fatalf("single-lane histogram: stride %d, %d lanes", single.stride, len(single.cells)/single.stride)
	}
}
