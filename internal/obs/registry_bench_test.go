package obs

import (
	"fmt"
	"testing"
)

// Benchmarks for the snapshot path — the hot loop behind live /metrics
// scrapes and timeline window closes. `make bench` archives
// these alongside the science benchmarks so a regression in the
// observability layer itself (say, a snapshot turning O(n²)) surfaces in
// benchcmp, not in production wall time.

// benchRegistry populates a registry at roughly the instrument count of a
// real campaign: the core/runner/coding counters plus span histograms.
func benchRegistry() *Registry {
	reg := NewRegistry()
	for i := 0; i < 32; i++ {
		reg.Counter(fmt.Sprintf("core.counter_%d", i)).Add(int64(i * 1000))
	}
	bounds := []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	for i := 0; i < 10; i++ {
		h := reg.Histogram(fmt.Sprintf("span.phase_%d_ns", i), bounds, Volatile)
		for v := int64(1); v < 2048; v *= 2 {
			h.Observe(v)
		}
	}
	return reg
}

func BenchmarkSnapshot(b *testing.B) {
	reg := benchRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.Snapshot()
	}
}

func BenchmarkDelta(b *testing.B) {
	reg := benchRegistry()
	base := reg.Snapshot()
	reg.Counter("core.counter_0").Add(17)
	cur := reg.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cur.Delta(base)
	}
}

func BenchmarkTimelineWindowClose(b *testing.B) {
	reg := benchRegistry()
	c := reg.Counter("core.counter_0")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 1, Cap: 64})
	tl.BeginSegment()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(3)
		tl.NoteTrials(i, i+1) // every note closes one window
	}
}
