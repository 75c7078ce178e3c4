package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"witag/internal/channel"
	"witag/internal/dot11"
	"witag/internal/stats"
	"witag/internal/tag"
)

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
			beforeP, beforeTicks, beforeWatts := warm.trig.p, warm.trig.ticks, warm.link.watts
			beforeAirs := append([]time.Duration(nil), warm.plan.airs...)
			c.edit(t, warm)
			c.edit(t, cold)
			cold.trig, cold.link.watts, cold.cov, cold.tables = triggerCache{}, wattsCache{}, tag.CoverageBuffers{}, [2]*decodeTable{}
			for r := 0; r < 4; r++ {
				a, b := round()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("round %d after the edit:\nwarm caches: %+v\ncold caches: %+v", r, a, b)
				}
				if math.Float64bits(warm.trig.p) != math.Float64bits(cold.trig.p) || warm.link.watts != cold.link.watts {
					t.Fatalf("round %d after the edit: warm p %v, %+v; cold p %v, %+v", r, warm.trig.p, warm.link.watts, cold.trig.p, cold.link.watts)
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
			if warm.trig.p == beforeP && warm.trig.ticks == beforeTicks && warm.link.watts == beforeWatts &&
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
