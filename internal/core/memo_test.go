package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"witag/internal/channel"
	"witag/internal/dot11"
	"witag/internal/phy"
	"witag/internal/stats"
	"witag/internal/tag"
)

// TestSuccessMemoMatchesDirect proves the memoised decode model bit-equal
// to calling phy.SuccessProbAtBER per segment: across coverage in [0, 1]
// (and clamped beyond it), every subframe size the query plans give under
// each cipher, and pairs of BERs swept log-uniformly. Each BER pair is one
// round, so the memo is reset between pairs and must pay for exactly the
// distinct (BER, bits) pairs the round asked for.
func TestSuccessMemoMatchesDirect(t *testing.T) {
	sys, _ := testbed(t, 2, 34)
	bitsSet := map[int]bool{}
	for _, c := range planCiphers(t) {
		if err := sys.SetCipher(c); err != nil {
			t.Fatal(err)
		}
		plan, err := sys.queryPlan()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range plan.subBits {
			bitsSet[b] = true
		}
	}
	if len(bitsSet) < 3 {
		t.Fatalf("only %d distinct subframe sizes across the plans", len(bitsSet))
	}
	bers := []float64{0}
	for i := 0; i <= 24; i++ {
		bers = append(bers, math.Pow(10, -9+float64(i)*8.7/24)) // 1e-9 … 0.5
	}
	coverages := []float64{-0.25, 1.25}
	for i := 0; i <= 64; i++ {
		coverages = append(coverages, float64(i)/64)
	}
	direct := func(cleanBER, dirtyBER float64, subBits int, coverage float64) float64 {
		coverage = math.Min(math.Max(coverage, 0), 1)
		cleanBits := int(math.Round(float64(subBits) * (1 - coverage)))
		p := 1.0
		if cleanBits > 0 {
			p *= phy.SuccessProbAtBER(cleanBER, cleanBits)
		}
		if dirtyBits := subBits - cleanBits; dirtyBits > 0 {
			p *= phy.SuccessProbAtBER(dirtyBER, dirtyBits)
		}
		return p
	}
	for i, cleanBER := range bers {
		for _, dirtyBER := range []float64{bers[i], bers[(i*7+3)%len(bers)], bers[len(bers)-1-i]} {
			sys.memo.reset()
			type pair struct {
				ber  float64
				bits int
			}
			asked := map[pair]bool{}
			for subBits := range bitsSet {
				for _, cov := range coverages {
					got := subframeSuccessProb(&sys.memo, cleanBER, dirtyBER, subBits, cov)
					if want := direct(cleanBER, dirtyBER, subBits, cov); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("BER %g/%g, %d bits, coverage %g: memo %v, direct %v", cleanBER, dirtyBER, subBits, cov, got, want)
					}
					c := math.Min(math.Max(cov, 0), 1)
					cleanBits := int(math.Round(float64(subBits) * (1 - c)))
					if cleanBits > 0 {
						asked[pair{cleanBER, cleanBits}] = true
					}
					if subBits-cleanBits > 0 {
						asked[pair{dirtyBER, subBits - cleanBits}] = true
					}
				}
			}
			if got := sys.memo.evals(); got != len(asked) {
				t.Fatalf("BER %g/%g: %d evaluations for %d distinct (BER, bits) pairs", cleanBER, dirtyBER, got, len(asked))
			}
		}
	}
}

// TestSuccessMemoRoundStamps checks the memo's table across round
// boundaries: an entry from an earlier round never answers a later one,
// a memo used before its first reset still evaluates, growth keeps the
// round's entries, and when the round stamp wraps the old entries are
// cleared rather than revived.
func TestSuccessMemoRoundStamps(t *testing.T) {
	var m successMemo
	if got, want := m.prob(0, 0), phy.SuccessProbAtBER(0, 0); got != want || m.evals() != 1 {
		t.Fatalf("before any reset: p %v (want %v), %d evaluations", got, want, m.evals())
	}
	ask := func(ber float64, n int) {
		t.Helper()
		for bits := 1; bits <= n; bits++ {
			if got, want := m.prob(ber, bits), phy.SuccessProbAtBER(ber, bits); got != want {
				t.Fatalf("BER %g, %d bits: memo %v, direct %v", ber, bits, got, want)
			}
		}
	}
	m.reset()
	ask(1e-3, 100) // grows the table past 16 slots
	ask(1e-3, 100) // all hits, whatever slot each entry moved to
	if m.evals() != 100 {
		t.Fatalf("%d evaluations for 100 distinct pairs", m.evals())
	}
	m.reset()
	ask(1e-3, 100) // last round's entries answer nothing
	if m.evals() != 100 {
		t.Fatalf("next round: %d evaluations for 100 distinct pairs", m.evals())
	}
	// The stamp after the wrap is 1, which the first round's entries
	// carry: they must be gone.
	m = successMemo{}
	m.reset()
	ask(1e-3, 100)
	m.round = math.MaxUint32
	m.reset()
	ask(1e-3, 100)
	if m.evals() != 100 {
		t.Fatalf("after the stamp wrapped: %d evaluations for 100 distinct pairs", m.evals())
	}
}

func TestWattsCacheColdStart(t *testing.T) {
	var c wattsCache
	txW, noiseW := c.get(0, 0)
	if txW != channel.DbmToWatts(0) || noiseW != channel.DbmToWatts(0) {
		t.Fatalf("cold cache gave %v, %v W for 0 dBm", txW, noiseW)
	}
	for _, k := range [][2]float64{{20, -90}, {20, -87}, {17, -87}, {17, -87}} {
		txW, noiseW := c.get(k[0], k[1])
		if txW != channel.DbmToWatts(k[0]) || noiseW != channel.DbmToWatts(k[1]) {
			t.Fatalf("cache gave %v, %v W for %v dBm", txW, noiseW, k)
		}
	}
}

// cacheTestbed is testbed with a wall between client and tag and a noisy
// detector, so the trigger detection probability is well inside (0, 1)
// and every input it depends on moves it.
func cacheTestbed(t *testing.T) *System {
	t.Helper()
	sys, env := testbed(t, 2, 34)
	env.AddWall(channel.Point{X: 1, Y: -4}, channel.Point{X: 1, Y: 4}, 3, "drywall")
	sys.DetectorNoiseFigure = 250
	return sys
}

// TestRoundCacheInvalidation edits, mid-trial and in place, every input of the
// trigger detection, link-power, coverage-boundary and decode-table
// caches, one at a time. A twin System runs the same rounds and takes the same edit, but
// with its caches emptied, as a freshly built System's are; from the edit
// on, the two must agree bit for bit — the rounds, the detection
// probability, the link power and the decode table the reused layout
// gives — and the edit must have moved what it feeds, so it was visible.
func TestRoundCacheInvalidation(t *testing.T) {
	ccmp := planCiphers(t)["CCMP"]
	edits := []struct {
		name string
		edit func(t *testing.T, s *System)
	}{
		{"client moved", func(_ *testing.T, s *System) { s.ClientPos.Y += 0.4 }},
		{"tag moved", func(_ *testing.T, s *System) { s.TagPos.X += 0.3 }},
		{"frequency", func(_ *testing.T, s *System) { s.Env.FreqHz = 5.18e9 }},
		{"path-loss exponent", func(_ *testing.T, s *System) { s.Env.PathLossExp = 2.2 }},
		{"tx power", func(_ *testing.T, s *System) { s.Env.TxPowerDbm -= 2 }},
		{"noise floor", func(_ *testing.T, s *System) { s.Env.NoiseFloorDbm += 2 }},
		{"wall attenuation", func(_ *testing.T, s *System) { s.Env.Walls[0].AttenuationDb += 1.5 }},
		{"wall moved aside", func(_ *testing.T, s *System) { s.Env.Walls[0].A.Y = 1 }},
		{"wall added", func(_ *testing.T, s *System) {
			s.Env.AddWall(channel.Point{X: 1.5, Y: -4}, channel.Point{X: 1.5, Y: 4}, 2, "glass")
		}},
		{"detector noise figure", func(_ *testing.T, s *System) { s.DetectorNoiseFigure *= 1.3 }},
		{"trigger length", func(t *testing.T, s *System) {
			s.Spec.TriggerLen = 3
			if err := s.Reshape(); err != nil {
				t.Fatal(err)
			}
		}},
		{"measured ticks", func(t *testing.T, s *System) {
			mcs, err := dot11.HTMCS(0)
			if err != nil {
				t.Fatal(err)
			}
			s.Spec.MCS = mcs
			if err := s.Reshape(); err != nil {
				t.Fatal(err)
			}
		}},
		{"CCMP reshape", func(t *testing.T, s *System) {
			if err := s.SetCipher(ccmp); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range edits {
		t.Run(c.name, func(t *testing.T) {
			warm, cold := cacheTestbed(t), cacheTestbed(t)
			bits := stats.NewRNG(9)
			round := func() (a, b *RoundResult) {
				t.Helper()
				in := stats.RandomBits(bits, warm.Spec.DataLen)
				var err error
				for _, s := range []*System{warm, cold} {
					s.Env.Advance(0.05)
				}
				if a, err = warm.QueryRound(in); err != nil {
					t.Fatal(err)
				}
				if b, err = cold.QueryRound(in); err != nil {
					t.Fatal(err)
				}
				return a, b
			}
			for r := 0; r < 3; r++ {
				round()
			}
			if p := warm.trig.p; p < 0.05 || p > 0.95 {
				t.Fatalf("detection probability %v too close to 0 or 1 for the edits to show", p)
			}
			beforeP, beforeTicks, beforeWatts := warm.trig.p, warm.trig.ticks, warm.watts
			beforeAirs := append([]time.Duration(nil), warm.plan.airs...)
			c.edit(t, warm)
			c.edit(t, cold)
			cold.trig, cold.watts, cold.cov, cold.tables = triggerCache{}, wattsCache{}, tag.CoverageBuffers{}, [2]*decodeTable{}
			for r := 0; r < 4; r++ {
				a, b := round()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("round %d after the edit:\nwarm caches: %+v\ncold caches: %+v", r, a, b)
				}
				if math.Float64bits(warm.trig.p) != math.Float64bits(cold.trig.p) || warm.watts != cold.watts {
					t.Fatalf("round %d after the edit: warm p %v, %+v; cold p %v, %+v", r, warm.trig.p, warm.watts, cold.trig.p, cold.watts)
				}
				// The warm decode table, as the round left it, must hold
				// what a table built on fresh layout buffers holds.
				timing := tag.QueryTiming{DataStartTick: warm.trig.ticks * warm.Spec.TriggerLen, SubframeTicks: warm.trig.ticks}
				got, err := warm.tableFor(&warm.plan, true, timing)
				if err != nil {
					t.Fatal(err)
				}
				fresh := &System{Tag: warm.Tag, TempC: warm.TempC, systemScratch: new(systemScratch)}
				want, err := fresh.tableFor(&warm.plan, true, timing)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tableSplits(got), tableSplits(want)) {
					t.Fatalf("round %d after the edit: the reused decode table differs from a fresh build", r)
				}
			}
			if warm.trig.p == beforeP && warm.trig.ticks == beforeTicks && warm.watts == beforeWatts &&
				reflect.DeepEqual(warm.plan.airs, beforeAirs) {
				t.Fatal("detection probability, ticks, link power and subframe airtimes unchanged: the edit was not seen")
			}
		})
	}
}

// tableSplits lists t's split for every subframe and window bit
// combination.
func tableSplits(t *decodeTable) [][]split {
	out := make([][]split, len(t.subs))
	for i, sub := range t.subs {
		for c := 0; c <= int(sub.mask); c++ {
			out[i] = append(out[i], t.splits[t.combos[int(sub.off)+c]])
		}
	}
	return out
}
