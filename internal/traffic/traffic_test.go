package traffic

import (
	"reflect"
	"testing"

	"witag/internal/stats"
)

func TestNamedProfilesValidate(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("only %d named profiles; the sweep needs at least 3", len(names))
	}
	for _, n := range names {
		p, err := Named(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("profile %q invalid: %v", n, err)
		}
	}
	if _, err := Named("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestProfileValidation(t *testing.T) {
	good, _ := Named("office")
	cases := map[string]func(p *Profile){
		"no states":      func(p *Profile) { p.States = nil },
		"bad start":      func(p *Profile) { p.Start = 5 },
		"negative rate":  func(p *Profile) { p.States[0].ArrivalsPerRound = -1 },
		"zero burst len": func(p *Profile) { p.States[0].MeanBurstSubframes = 0 },
		"ragged matrix":  func(p *Profile) { p.Trans[0] = []float64{1} },
		"non-stochastic": func(p *Profile) { p.Trans[0] = []float64{0.5, 0.2} },
	}
	for name, mutate := range cases {
		p := good
		p.States = append([]State(nil), good.States...)
		p.Trans = make([][]float64, len(good.Trans))
		for i := range good.Trans {
			p.Trans[i] = append([]float64(nil), good.Trans[i]...)
		}
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestRoundMaskDeterministic(t *testing.T) {
	p, _ := Named("download")
	a, err := NewGenerator(p, stats.SubSeed(1, "traffic"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewGenerator(p, stats.SubSeed(1, "traffic"))
	c, _ := NewGenerator(p, stats.SubSeed(2, "traffic"))
	differs := false
	for r := 0; r < 200; r++ {
		ma, mb, mc := a.RoundMask(64), b.RoundMask(64), c.RoundMask(64)
		if !reflect.DeepEqual(ma, mb) {
			t.Fatalf("round %d: same seed diverged", r)
		}
		if !reflect.DeepEqual(ma, mc) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical 200-round mask streams")
	}
}

// freshRoundMask is RoundMask drawing into a newly allocated mask, as it
// did before the generator kept one.
func freshRoundMask(g *Generator, n int) []bool {
	mask := make([]bool, n)
	u := g.rng.Float64()
	row := g.prof.Trans[g.state]
	next := len(row) - 1
	acc := 0.0
	for j, pj := range row {
		acc += pj
		if u < acc {
			next = j
			break
		}
	}
	g.state = next
	st := g.prof.States[g.state]
	bursts := stats.Poisson(g.rng, st.ArrivalsPerRound)
	for b := 0; b < bursts; b++ {
		start := g.rng.Intn(n)
		length := int(stats.Exponential(g.rng, st.MeanBurstSubframes)) + 1
		for i := start; i < start+length && i < n; i++ {
			mask[i] = true
		}
	}
	return mask
}

// TestRoundMaskReuseMatchesFresh checks the reused mask against fresh
// allocation round by round while the subframe count grows and shrinks,
// so no round can read a burst left over from an earlier one.
func TestRoundMaskReuseMatchesFresh(t *testing.T) {
	p, _ := Named("saturated")
	a, err := NewGenerator(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewGenerator(p, 5)
	for r := 0; r < 400; r++ {
		n := []int{64, 12, 1, 40, 64, 3}[r%6]
		if got, want := a.RoundMask(n), freshRoundMask(b, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (n=%d): mask %v, fresh %v", r, n, got, want)
		}
	}
}

func TestLoadOrdering(t *testing.T) {
	// Severer profiles must mask more subframes in the long run.
	masked := func(name string) int {
		p, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for r := 0; r < 2000; r++ {
			for _, hit := range g.RoundMask(64) {
				if hit {
					total++
				}
			}
		}
		return total
	}
	q, o, s := masked("quiet"), masked("office"), masked("saturated")
	if !(q < o && o < s) {
		t.Fatalf("load ordering violated: quiet=%d office=%d saturated=%d", q, o, s)
	}
	if q == 0 {
		t.Fatal("quiet profile masked nothing in 2000 rounds — generator inert")
	}
	// Saturated should be genuinely heavy: a meaningful fraction of all
	// subframes, or the schemes have nothing to adapt to.
	if frac := float64(s) / (2000 * 64); frac < 0.15 {
		t.Fatalf("saturated profile masked only %.1f%% of subframes", 100*frac)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := stats.NewRNG(3)
	const mean, n = 2.5, 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += stats.Poisson(rng, mean)
	}
	got := float64(sum) / n
	if got < mean*0.95 || got > mean*1.05 {
		t.Fatalf("Poisson(%v) sample mean %v", mean, got)
	}
	if stats.Poisson(rng, 0) != 0 || stats.Poisson(rng, -1) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
}
