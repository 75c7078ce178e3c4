package fault

import (
	"math"
	"reflect"
	"testing"

	"witag/internal/stats"
)

func TestProfileValidate(t *testing.T) {
	if err := (Profile{}).Validate(); err != nil {
		t.Fatalf("zero profile invalid: %v", err)
	}
	if err := (Profile{PGoodBad: 1.5}).Validate(); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := (Profile{LossBad: -0.1}).Validate(); err == nil {
		t.Fatal("negative probability accepted")
	}
	if err := (Profile{BrownoutProb: 0.5}).Validate(); err == nil {
		t.Fatal("brownout with zero window accepted")
	}
}

func TestNamedProfiles(t *testing.T) {
	for _, name := range Names() {
		p, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := NewInjector(p, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Named("microwave"); err != nil {
		t.Fatal("microwave preset missing")
	}
	if _, err := Named("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestAvgLossMatchesEmpiricalRate(t *testing.T) {
	p, err := Named("bursty")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400_000
	lost := 0
	for i := 0; i < n; i++ {
		if in.SubframeLost() {
			lost++
		}
	}
	got := float64(lost) / n
	want := p.AvgLoss()
	if math.Abs(got-want) > 0.15*want+0.001 {
		t.Fatalf("empirical loss %v, steady-state %v", got, want)
	}
}

func TestGilbertElliottIsBursty(t *testing.T) {
	// At equal average loss, the GE stream's lost subframes must clump:
	// the conditional P(loss | previous loss) far exceeds the marginal.
	p := Profile{PGoodBad: 0.01, PBadGood: 0.25, LossGood: 0.002, LossBad: 0.6}
	g := GilbertElliott{PGoodBad: p.PGoodBad, PBadGood: p.PBadGood, LossGood: p.LossGood, LossBad: p.LossBad}
	rng := stats.NewRNG(3)
	const n = 200_000
	losses, pairs, afterLoss := 0, 0, 0
	prev := false
	for i := 0; i < n; i++ {
		lost := g.Step(rng)
		if lost {
			losses++
		}
		if prev {
			afterLoss++
			if lost {
				pairs++
			}
		}
		prev = lost
	}
	marginal := float64(losses) / n
	conditional := float64(pairs) / float64(afterLoss)
	if conditional < 3*marginal {
		t.Fatalf("stream not bursty: P(loss|loss) = %v vs marginal %v", conditional, marginal)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	p, err := Named("harsh")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []any {
		in, err := NewInjector(p, stats.SubSeed(42, "fault", "run=0"))
		if err != nil {
			t.Fatal(err)
		}
		var trace []any
		for round := 0; round < 50; round++ {
			trace = append(trace, in.TriggerMissed())
			s, l, a := in.BrownoutWindow(60)
			trace = append(trace, s, l, a)
			for i := 0; i < 64; i++ {
				trace = append(trace, in.SubframeLost())
			}
			trace = append(trace, in.BALost())
		}
		return trace
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("same seed produced different fault streams")
	}
}

// TestBrownoutWindowClips: every probability-1 window lies inside the
// round, and a disabled brownout never fires. The hooks only draw;
// core.System counts the windows (TestInjectedTallyMatchesHooks).
func TestBrownoutWindowClips(t *testing.T) {
	p := Profile{BrownoutProb: 1, BrownoutSubframes: 16}
	in, err := NewInjector(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		start, length, active := in.BrownoutWindow(10)
		if !active {
			t.Fatal("probability-1 brownout missed")
		}
		if start < 0 || start >= 10 || start+length > 10 || length < 1 {
			t.Fatalf("window [%d,%d) outside 10 subframes", start, start+length)
		}
	}
	// Disabled brownout must not fire and must report inactive.
	off, err := NewInjector(Profile{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, active := off.BrownoutWindow(10); active {
		t.Fatal("zero-probability brownout fired")
	}
}
