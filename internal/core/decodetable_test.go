package core

import (
	"math"
	"testing"

	"witag/internal/channel"
	"witag/internal/dot11"
	"witag/internal/phy"
	"witag/internal/stats"
	"witag/internal/tag"
)

// berBits is one (BER, bits) pair the decode model prices. As a map key
// its BER compares with ==, so +0 and −0 are one key.
type berBits struct {
	ber  float64
	bits int
}

// subframeSuccessProb is the per-subframe decode model QueryRound used
// before the decode table, kept as its oracle: split a subframe's bits by
// its corruption coverage into clean-channel and corrupted segments at
// the round's two coded BERs, and multiply their success probabilities.
// Each (BER, bits) pair it prices goes into asked, whose size is then the
// evaluations a round that pays once per pair makes.
func subframeSuccessProb(asked map[berBits]bool, cleanBER, dirtyBER float64, subBits int, coverage float64) float64 {
	prob := func(ber float64, bits int) float64 {
		asked[berBits{ber, bits}] = true
		return phy.SuccessProbAtBER(ber, bits)
	}
	if coverage <= 0 {
		// An untouched subframe is one clean segment: 1·p is p exactly.
		return prob(cleanBER, subBits)
	}
	if coverage > 1 {
		coverage = 1
	}
	p := 1.0
	cleanBits := int(math.Round(float64(subBits) * (1 - coverage)))
	dirtyBits := subBits - cleanBits
	if cleanBits > 0 {
		p *= prob(cleanBER, cleanBits)
	}
	if dirtyBits > 0 {
		p *= prob(dirtyBER, dirtyBits)
	}
	return p
}

// oracleSplit is the split subframeSuccessProb makes of subBits at
// coverage.
func oracleSplit(subBits int, coverage float64) split {
	if coverage <= 0 {
		return split{clean: subBits}
	}
	clean := int(math.Round(float64(subBits) * (1 - math.Min(coverage, 1))))
	return split{clean, subBits - clean}
}

// FuzzDecodeTable holds the decode table to the arithmetic it replaces,
// round by round: the tag's coverage sum (tag.CorruptionCoverageSchedule),
// the brownout clear, then subframeSuccessProb. Every subframe's split
// and success probability must match bit for bit, and the round must pay
// for one evaluation per distinct (BER, bits) pair it prices. The worlds
// cover crystal and ring clocks at 25 and 35 °C, dithered open and
// CCMP-shaped queries, an MCS that alternates between rounds, measured
// ticks off by one, trigger misses, brownouts and equal clean and dirty
// BERs.
func FuzzDecodeTable(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 157, 1001} {
		for _, world := range []uint8{0, 1, 2, 3, 4, 5, 6, 7} {
			f.Add(seed, world)
		}
	}
	ccmp := planCiphers(f)["CCMP"]
	f.Fuzz(func(t *testing.T, seed int64, world uint8) {
		sys, _ := testbed(t, 2, seed)
		if world&1 != 0 {
			sys.Tag.Clock = tag.NewRingOscillator(50e3, nil)
		}
		if world&2 != 0 {
			sys.TempC = 35
		}
		if world&4 != 0 {
			if err := sys.SetCipher(ccmp); err != nil {
				t.Fatal(err)
			}
		}
		rng := stats.NewRNG(seed)
		mcss := []int{2, 2 + rng.Intn(6)}
		for round := 0; round < 24; round++ {
			mcs, err := dot11.HTMCS(mcss[round%2])
			if err != nil {
				t.Fatal(err)
			}
			sys.Spec.MCS = mcs
			if err := sys.Reshape(); err != nil {
				t.Fatal(err)
			}
			plan, err := sys.queryPlan()
			if err != nil {
				t.Fatal(err)
			}
			trig, data := sys.Spec.TriggerLen, sys.Spec.DataLen
			detected, timing, err := sys.detectTrigger(plan.trigMean)
			if err != nil {
				t.Fatal(err)
			}
			detected = detected && rng.Intn(6) != 0
			if rng.Intn(4) == 0 {
				timing.SubframeTicks = max(1, timing.SubframeTicks+2*rng.Intn(2)-1)
			}
			brownStart, brownLen := 0, 0
			if rng.Intn(3) == 0 {
				brownStart = rng.Intn(data)
				brownLen = 1 + rng.Intn(data-brownStart)
			}
			txBits := stats.RandomBits(rng, data)
			cleanBER := math.Pow(10, -9+9*rng.Float64())
			dirtyBER := cleanBER
			if rng.Intn(4) != 0 {
				dirtyBER = math.Pow(10, -6+6*rng.Float64())
			}

			tab, err := sys.tableFor(plan, detected, timing)
			if err != nil {
				t.Fatal(err)
			}
			var ids [dot11.MaxSubframes]uint16
			tab.roundSplits(ids[:trig+data], txBits, detected, brownStart, brownLen)
			tab.begin()

			coverage := make([]float64, data)
			if detected {
				if coverage, err = sys.Tag.CorruptionCoverageSchedule(timing, txBits, plan.airs[trig:], sys.TempC); err != nil {
					t.Fatal(err)
				}
				clear(coverage[brownStart : brownStart+brownLen])
			}
			asked := map[berBits]bool{}
			for i := range trig + data {
				f := 0.0
				if i >= trig {
					f = coverage[i-trig]
				}
				want := subframeSuccessProb(asked, cleanBER, dirtyBER, plan.subBits[i], f)
				got := tab.prob(ids[i], cleanBER, dirtyBER)
				if sp, wantSp := tab.splits[ids[i]], oracleSplit(plan.subBits[i], f); sp != wantSp {
					t.Fatalf("round %d subframe %d (coverage %v): split %+v, oracle %+v", round, i, f, sp, wantSp)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d subframe %d (coverage %v): p %v, oracle %v", round, i, f, got, want)
				}
			}
			if tab.evals != len(asked) {
				t.Fatalf("round %d: %d decode-model evaluations for %d distinct (BER, bits) pairs", round, tab.evals, len(asked))
			}
		}
	})
}

// TestDecodeTableBounds checks the table's two refusals: a geometry that
// puts more than maxTableWindows windows over one subframe, and none of
// the tag's validation lost on the way.
func TestDecodeTableBounds(t *testing.T) {
	sys, _ := testbed(t, 2, 3)
	plan, err := sys.queryPlan()
	if err != nil {
		t.Fatal(err)
	}
	timing := tag.QueryTiming{SubframeTicks: 1}
	// A 50 kHz clock at 20 MHz: windows 400 times shorter than subframes.
	sys.Tag.Clock = tag.NewCrystal50kHz(nil)
	sys.Tag.Clock.NominalHz = 20e6
	if _, err := sys.tableFor(plan, true, timing); err == nil {
		t.Fatal("a subframe under hundreds of windows was accepted")
	}
	sys.Tag.Clock = tag.NewCrystal50kHz(nil)
	sys.Tag.GuardFraction = 0.5
	if _, err := sys.tableFor(plan, true, timing); err == nil {
		t.Fatal("guard fraction 0.5 accepted")
	}
	// An undetected round never lays windows, as the coverage sum never
	// ran for one.
	if _, err := sys.tableFor(plan, false, timing); err != nil {
		t.Fatalf("undetected round: %v", err)
	}
	sys.Tag.GuardFraction = 0.1
	if _, err := sys.tableFor(plan, true, timing); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeTableRoundWrap checks the table's round stamps across a wrap:
// when round passes math.MaxUint32, begin must clear the stamps of both
// the split and the size prices rather than let a past round's prices
// answer the new round 1, so every price is evaluated again, equal to the
// first round's, and counted again.
func TestDecodeTableRoundWrap(t *testing.T) {
	sys, _ := testbed(t, 2, 5)
	plan, err := sys.queryPlan()
	if err != nil {
		t.Fatal(err)
	}
	detected, timing, err := sys.detectTrigger(plan.trigMean)
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("trigger missed: the table would lay no windows")
	}
	tab, err := sys.tableFor(plan, true, timing)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.splits) < 2 || len(tab.sizes) < 3 {
		t.Fatalf("%d splits over %d sizes: too few to show a wrap", len(tab.splits), len(tab.sizes))
	}
	const cleanBER, dirtyBER = 1e-4, 3e-2
	priceAll := func() ([]float64, int) {
		ps := make([]float64, len(tab.splits))
		for id := range tab.splits {
			ps[id] = tab.prob(uint16(id), cleanBER, dirtyBER)
		}
		return ps, tab.evals
	}
	tab.begin()
	first, evals := priceAll()
	tab.round = math.MaxUint32
	tab.begin()
	for _, level := range [][]stamped{tab.price, tab.at[0], tab.at[1]} {
		for i, s := range level {
			if s.round != 0 {
				t.Fatalf("after the wrap a price %d still carries round %d", i, s.round)
			}
		}
	}
	again, evalsAgain := priceAll()
	if evalsAgain != evals {
		t.Fatalf("after the wrap: %d evaluations, first round %d", evalsAgain, evals)
	}
	for id := range first {
		if math.Float64bits(again[id]) != math.Float64bits(first[id]) {
			t.Fatalf("split %d after the wrap: p %v, first round %v", id, again[id], first[id])
		}
	}
}

// BenchmarkSubframeDecode times a round's subframe decode at Figure 6's
// location B operating point, the viterbi phase's region: the round's
// decode table and splits, then every subframe's success probability and
// verdict draw. The links are 64 real rounds of the location-B world.
func BenchmarkSubframeDecode(b *testing.B) {
	env := channel.NewEnvironment(1)
	env.AddWall(channel.Point{X: 3.5, Y: -6}, channel.Point{X: 3.5, Y: 6}, 7, "wooden wall")
	env.AddWall(channel.Point{X: 9, Y: -6}, channel.Point{X: 9, Y: 6}, 12, "concrete wall")
	env.AddWall(channel.Point{X: 13, Y: -6}, channel.Point{X: 13, Y: 6}, 10, "metal cabinets")
	env.AddReflector(channel.Point{X: 2, Y: 2.5}, 55)
	env.AddReflector(channel.Point{X: 11, Y: -3}, 70)
	env.AddReflector(channel.Point{X: 15, Y: 3}, 70)
	env.AddScatterers(6, 0, -4, 17, 4, 22, 1.2)
	sys, err := NewSystem(env, channel.Point{}, channel.Point{X: 17}, channel.Point{X: 1, Y: 0.3}, 68, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := sys.geom()
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(2)
	links := make([]linkState, 64)
	bits := make([][]byte, len(links))
	for i := range links {
		env.Advance(channel.RoundStepS)
		if links[i], _, _, err = sys.link.eval(env, &g, nil, 0); err != nil {
			b.Fatal(err)
		}
		bits[i] = stats.RandomBits(rng, sys.Spec.DataLen)
	}
	plan, err := sys.queryPlan()
	if err != nil {
		b.Fatal(err)
	}
	_, timing, err := sys.detectTrigger(plan.trigMean)
	if err != nil {
		b.Fatal(err)
	}
	total := sys.Spec.Total()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link := &links[i%len(links)]
		tab, err := sys.tableFor(plan, true, timing)
		if err != nil {
			b.Fatal(err)
		}
		var ids [dot11.MaxSubframes]uint16
		tab.roundSplits(ids[:total], bits[i%len(bits)], true, 0, 0)
		tab.begin()
		for j := range total {
			stats.Bernoulli(sys.rng, tab.prob(ids[j], link.cleanBER, link.dirtyBER))
		}
	}
}
