package obs_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"witag/internal/obs"
	"witag/internal/obs/obstest"
)

// The snapshot merge lives in obstest, since only tests fold snapshots
// together; its tests stay beside the snapshots they merge.

func TestMergeIsOrderIndependent(t *testing.T) {
	mk := func(c int64, vals ...int64) obs.Snapshot {
		r := obs.NewRegistry()
		r.Counter("n").Add(c)
		h := r.Histogram("h", []int64{10, 100})
		for _, v := range vals {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a, b, c := mk(1, 5), mk(10, 50, 500), mk(100, 7, 70, 700)

	abc := obstest.Merge(a, b, c)
	cba := obstest.Merge(c, b, a)
	nested := obstest.Merge(obstest.Merge(a, b), c)
	if !reflect.DeepEqual(abc, cba) || !reflect.DeepEqual(abc, nested) {
		t.Fatalf("merge depends on order/grouping:\nabc: %+v\ncba: %+v\nnested: %+v", abc, cba, nested)
	}
	if abc.Counters["n"] != 111 {
		t.Fatalf("merged counter = %d, want 111", abc.Counters["n"])
	}
	if h := abc.Histograms["h"]; h.Count != 6 || h.Sum != 5+50+500+7+70+700 {
		t.Fatalf("merged histogram = %+v", h)
	}
}

func TestMergeMismatchedBucketLayouts(t *testing.T) {
	mk := func(bounds []int64, vals ...int64) obs.Snapshot {
		r := obs.NewRegistry()
		h := r.Histogram("h", bounds)
		for _, v := range vals {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a := mk([]int64{10, 100}, 5, 50)        // counts [1,1,0]
	b := mk([]int64{10, 100, 1000}, 5, 500) // counts [1,0,1,0]

	m := obstest.Merge(a, b)
	h := m.Histograms["h"]
	// First layout seen wins; the mismatched snapshot's whole count folds
	// into the overflow bucket, so Count and Sum stay exact.
	if !reflect.DeepEqual(h.Bounds, []int64{10, 100}) {
		t.Fatalf("merged bounds = %v, want first layout", h.Bounds)
	}
	if want := []int64{1, 1, 2}; !reflect.DeepEqual(h.Counts, want) {
		t.Fatalf("merged counts = %v, want %v", h.Counts, want)
	}
	if h.Count != 4 || h.Sum != 5+50+5+500 {
		t.Fatalf("merged count/sum = %d/%d, want 4/560", h.Count, h.Sum)
	}

	// Reversed order keeps totals exact too (layout differs by design).
	rh := obstest.Merge(b, a).Histograms["h"]
	if rh.Count != h.Count || rh.Sum != h.Sum {
		t.Fatalf("reversed merge count/sum = %d/%d, want %d/%d", rh.Count, rh.Sum, h.Count, h.Sum)
	}
}

// TestMergeOfEmpties checks that merging empty snapshots gives an empty,
// well-formed snapshot whatever the argument count.
func TestMergeOfEmpties(t *testing.T) {
	s := obs.NewRegistry().Snapshot()
	j1, _ := json.Marshal(obstest.Merge(s, s))
	j2, _ := json.Marshal(obstest.Merge())
	if string(j1) != string(j2) {
		t.Fatalf("empty merges encode differently: %s vs %s", j1, j2)
	}
}
