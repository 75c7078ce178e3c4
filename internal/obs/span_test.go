package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPhaseNamesAndSpanNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		name := p.String()
		if name == "" || name == "invalid" {
			t.Fatalf("phase %d has no name", p)
		}
		if seen[name] {
			t.Fatalf("duplicate phase name %q", name)
		}
		seen[name] = true
		if want := "span." + name + "_ns"; SpanName(p) != want {
			t.Fatalf("SpanName(%s) = %q, want %q", name, SpanName(p), want)
		}
	}
	if NumPhases.String() != "invalid" {
		t.Fatalf("NumPhases.String() = %q, want invalid", NumPhases.String())
	}
}

func TestSpansRecordAndAreVolatile(t *testing.T) {
	reg := NewRegistry()
	s := NewSpans(reg)

	start := s.Start()
	if start == 0 {
		t.Fatal("Start on a live Spans returned the zero stamp")
	}
	s.End(PhaseViterbi, start)
	s.End(NumPhases, start) // out of range: ignored
	s.End(PhaseCRC, 0)      // zero start: ignored

	snap := reg.Snapshot()
	for p := Phase(0); p < NumPhases; p++ {
		name := SpanName(p)
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if !snap.Volatile[name] {
			t.Fatalf("%s is not volatile — wall-clock spans would break the determinism suite", name)
		}
		want := int64(0)
		if p == PhaseViterbi {
			want = 1
		}
		if h.Count != want {
			t.Fatalf("%s count = %d, want %d", name, h.Count, want)
		}
		if got := len(s.hists[p].cells) / s.hists[p].stride; got != Lanes {
			t.Fatalf("%s has %d lanes, want %d", name, got, Lanes)
		}
	}
	if h := snap.Histograms[SpanName(PhaseViterbi)]; h.Sum < 0 {
		t.Fatalf("negative span duration %d", h.Sum)
	}

	// The deterministic view must drop every span histogram.
	det := reg.Snapshot().Deterministic()
	for p := Phase(0); p < NumPhases; p++ {
		if _, ok := det.Histograms[SpanName(p)]; ok {
			t.Fatalf("%s leaked into the deterministic view", SpanName(p))
		}
	}
}

func TestSpansNilSafety(t *testing.T) {
	var s *Spans
	if start := s.Start(); start != 0 {
		t.Fatal("nil Spans.Start must return the zero stamp (no clock read)")
	}
	if next := s.Lap(PhaseEncode, 5); next != 0 {
		t.Fatal("nil Spans.Lap must return the zero stamp (no clock read)")
	}
	s.End(PhaseEncode, 0) // no-op, must not panic
	s.End(PhaseEncode, 5) // even with a live-looking start
	if s.Lane(3) != nil {
		t.Fatal("nil Spans.Lane must return nil")
	}
}

// TestLapChainsAreContiguous checks that a chain of Laps times contiguous
// regions: each Lap's stamp opens the next span, so the phases' sums add
// up to exactly the chain's first-to-last stamp distance, with no gap
// between regions, and one clock read per boundary.
func TestLapChainsAreContiguous(t *testing.T) {
	reg := NewRegistry()
	s := NewSpans(reg).Lane(5)
	chain := []Phase{PhaseEncode, PhaseChannel, PhaseEqualise, PhaseChannel, PhaseViterbi, PhaseCRC}
	first := s.Start()
	sp := first
	for _, p := range chain {
		time.Sleep(50 * time.Microsecond)
		next := s.Lap(p, sp)
		if next <= sp {
			t.Fatalf("Lap(%s) returned %d, not after its start %d", p, next, sp)
		}
		sp = next
	}
	var sum, n int64
	for p := Phase(0); p < NumPhases; p++ {
		h := reg.Snapshot().Histograms[SpanName(p)]
		sum += h.Sum
		n += h.Count
	}
	if n != int64(len(chain)) {
		t.Fatalf("%d spans recorded, want %d", n, len(chain))
	}
	if want := int64(sp - first); sum != want {
		t.Fatalf("phase sums add to %d ns, the chain spans %d ns", sum, want)
	}
	if got := reg.Snapshot().Histograms[SpanName(PhaseChannel)].Count; got != 2 {
		t.Fatalf("channel recorded %d spans, want 2", got)
	}
	// A zero start (a chain opened on a nil Spans) records nothing but
	// still opens the next span.
	if next := s.Lap(PhaseCRC, 0); next == 0 {
		t.Fatal("Lap with a zero start returned the zero stamp")
	}
	if got := reg.Snapshot().Histograms[SpanName(PhaseCRC)].Count; got != 1 {
		t.Fatalf("Lap with a zero start recorded a span: crc count %d", got)
	}
}

func TestSpansLaneSelection(t *testing.T) {
	s := NewSpans(NewRegistry())
	for _, c := range []struct{ id, lane int }{{0, 0}, {7, 7}, {8, 0}, {13, 5}, {-1, 7}, {-8, 0}} {
		l := s.Lane(c.id)
		if l.lane != c.lane {
			t.Errorf("Lane(%d) records into lane %d, want %d", c.id, l.lane, c.lane)
		}
		if l.hists[PhaseEncode] != s.hists[PhaseEncode] || l.Lane(c.lane) != l {
			t.Errorf("Lane(%d) does not share the root's histograms and lanes", c.id)
		}
		l.End(PhaseEncode, l.Start())
	}
	h := s.hists[PhaseEncode]
	if got := h.Snapshot().Count; got != 6 {
		t.Fatalf("encode count %d over all lanes, want 6", got)
	}
	for lane, want := range map[int]int64{0: 3, 5: 1, 7: 2} {
		if got := h.cells[lane*h.stride].Load(); got != want {
			t.Errorf("lane %d recorded %d spans, want %d", lane, got, want)
		}
	}
}

// BenchmarkSpansParallel times a QueryRound-shaped chain of six Laps per
// iteration from every worker at once. Each worker records into its own
// lane, as trials do; "shared" puts every worker on lane 0, the layout of
// a single-lane histogram, where the atomic adds contend for one set of
// cache lines.
func BenchmarkSpansParallel(b *testing.B) {
	chain := []Phase{PhaseEncode, PhaseChannel, PhaseEqualise, PhaseChannel, PhaseViterbi, PhaseCRC}
	for _, mode := range []string{"laned", "shared"} {
		b.Run(mode, func(b *testing.B) {
			root := NewSpans(NewRegistry())
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				s := root
				if mode == "laned" {
					s = root.Lane(int(next.Add(1)))
				}
				for pb.Next() {
					sp := s.Start()
					for _, p := range chain {
						sp = s.Lap(p, sp)
					}
				}
			})
		})
	}
}

// allocSink forces the test allocations below to escape to the heap.
var allocSink [][]byte

func TestReadRuntimeStatsMonotonic(t *testing.T) {
	before := ReadRuntimeStats()
	for i := 0; i < 64; i++ {
		allocSink = append(allocSink, make([]byte, 1024))
	}
	allocSink = nil
	after := ReadRuntimeStats()
	d := after.Sub(before)
	if d.AllocBytes == 0 || d.AllocObjects == 0 {
		t.Fatalf("runtime delta saw no allocations: %+v", d)
	}
}
