package perf

import (
	"strings"
	"testing"

	"witag/internal/obs"
)

// syntheticDelta builds a metrics delta by driving real instruments — the
// same shapes FromSnapshot reads in production — with known values. A
// phase's span histogram is the registry's instrument of its SpanName.
func syntheticDelta(t *testing.T) obs.Snapshot {
	t.Helper()
	reg := obs.NewRegistry()
	o := obs.NewObserver(reg, nil)

	// 4 trials, 1 ms wall each (recorded in µs).
	for i := 0; i < 4; i++ {
		o.Runner.TrialsStarted.Add(1)
		o.Runner.TrialWallUs.Observe(1000)
	}
	// viterbi: 4 spans × 500 µs = 2 ms total, half the 4 ms wall.
	for i := 0; i < 4; i++ {
		reg.Histogram(obs.SpanName(obs.PhaseViterbi), nil).Observe(500_000)
	}
	// encode: 4 spans × 250 µs = 1 ms, a quarter of the wall.
	for i := 0; i < 4; i++ {
		reg.Histogram(obs.SpanName(obs.PhaseEncode), nil).Observe(250_000)
	}
	o.Runner.AllocBytes.Add(4096)
	o.Runner.AllocObjects.Add(40)
	o.Runner.GCCycles.Add(2)
	return reg.Snapshot()
}

func TestFromSnapshot(t *testing.T) {
	rep := FromSnapshot(syntheticDelta(t))

	if rep.Trials != 4 {
		t.Fatalf("trials = %d, want 4", rep.Trials)
	}
	if rep.WallTotalNs != 4_000_000 {
		t.Fatalf("wall total = %d ns, want 4ms", rep.WallTotalNs)
	}
	if len(rep.Phases) != int(obs.NumPhases) {
		t.Fatalf("report has %d phases, want the full schema of %d", len(rep.Phases), obs.NumPhases)
	}
	// Fixed schema: phases appear in enum order whether or not they fired.
	for i, ps := range rep.Phases {
		if want := obs.Phase(i).String(); ps.Phase != want {
			t.Fatalf("phase[%d] = %q, want %q", i, ps.Phase, want)
		}
	}

	vit := rep.Phase("viterbi")
	if vit == nil || vit.Count != 4 || vit.TotalNs != 2_000_000 {
		t.Fatalf("viterbi stats wrong: %+v", vit)
	}
	if vit.WallShare < 0.49 || vit.WallShare > 0.51 {
		t.Fatalf("viterbi wall share = %f, want ~0.5", vit.WallShare)
	}
	if vit.NsPerTrial != 500_000 {
		t.Fatalf("viterbi ns/trial = %d, want 500000", vit.NsPerTrial)
	}
	if ch := rep.Phase("channel"); ch == nil || ch.Count != 0 || ch.TotalNs != 0 {
		t.Fatalf("silent phase must report zeros: %+v", ch)
	}

	// Coverage = (2ms + 1ms) / 4ms.
	if rep.Coverage < 0.74 || rep.Coverage > 0.76 {
		t.Fatalf("coverage = %f, want 0.75", rep.Coverage)
	}
	if rep.AllocBytesPerTrial != 1024 || rep.AllocObjectsPerTrial != 10 || rep.GCCycles != 2 {
		t.Fatalf("allocation accounting wrong: %+v", rep)
	}
}

func TestRender(t *testing.T) {
	rep := FromSnapshot(syntheticDelta(t))
	out := rep.Render()
	// Heaviest phase first.
	if vi, ei := strings.Index(out, "viterbi"), strings.Index(out, "encode"); vi < 0 || ei < 0 || vi > ei {
		t.Fatalf("render does not sort by total time:\n%s", out)
	}
	if !strings.Contains(out, "coverage 75.0%") {
		t.Fatalf("render missing coverage line:\n%s", out)
	}
}
