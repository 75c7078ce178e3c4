package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"witag/internal/channel"
	"witag/internal/dot11"
	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/phy"
	"witag/internal/stats"
	"witag/internal/traffic"
)

// oracleScoreboard is the AP-side record the round kept before it decided
// its subframes as one mask: the sequence numbers that arrived with a
// valid FCS, start-relative across the 12-bit wrap, inside the 64-frame
// block-ACK window.
type oracleScoreboard struct {
	startSeq uint16
	received uint64
}

func (s *oracleScoreboard) record(seq uint16) error {
	off := int(seq-s.startSeq) & 0x0FFF
	if off >= dot11.MaxSubframes {
		return fmt.Errorf("sequence %d outside window [%d,%d)", seq, s.startSeq, s.startSeq+dot11.MaxSubframes)
	}
	s.received |= 1 << uint(off)
	return nil
}

// oracleRound is QueryRound as it was before the round mask, without its
// spans: the world read in two places, one verdict per subframe recorded
// in a scoreboard, the scoreboard serialised into a block ACK and the tag
// bits read back out of its bitmap and compared one by one. nextSeq is
// the oracle's own sequence counter, advanced by one aggregate's worth of
// subframes per round across the 12-bit wrap.
func oracleRound(s *System, nextSeq *uint16, bits []byte) (*RoundResult, error) {
	plan, err := s.queryPlan()
	if err != nil {
		return nil, err
	}
	trigLen, dataLen := s.Spec.TriggerLen, s.Spec.DataLen
	total := trigLen + dataLen
	if len(bits) > dataLen {
		return nil, fmt.Errorf("core: %d bits exceed the query's %d data subframes", len(bits), dataLen)
	}
	txBits := make([]byte, dataLen)
	for i := range txBits {
		if i < len(bits) {
			txBits[i] = bits[i] & 1
		} else {
			txBits[i] = 1
		}
	}
	startSeq := *nextSeq
	*nextSeq = (startSeq + uint16(total)) & 0x0FFF

	var w worldRound
	var phasors int64
	linkEvals := 1
	var g linkGeom
	if s.Link != nil {
		if g, err = s.geom(); err != nil {
			return nil, err
		}
		if w, phasors, linkEvals, err = s.Link.at(s.linkRound, s, &g); err != nil {
			return nil, err
		}
		s.linkRound++
	} else {
		w.draws = drawRound(s.Faults, s.Traffic, dataLen, total)
	}
	draws := &w.draws
	draws.count(s)

	detected, timing, err := s.detectTrigger(plan.trigMean)
	if err != nil {
		return nil, err
	}
	if draws.flags&drawTrigMiss != 0 {
		detected = false
	}
	tab, err := s.tableFor(plan, detected, timing)
	if err != nil {
		return nil, err
	}
	var splits [dot11.MaxSubframes]uint16
	tab.roundSplits(splits[:total], txBits, detected, int(draws.brownStart), int(draws.brownLen))

	if s.Link == nil {
		if g, err = s.geom(); err != nil {
			return nil, err
		}
		if w.link, _, phasors, err = s.link.eval(s.Env, &g, nil, 0); err != nil {
			return nil, err
		}
	}
	link := &w.link

	sb := &oracleScoreboard{startSeq: startSeq}
	tab.begin()
	subOK, subLost := 0, 0
	for i := 0; i < total; i++ {
		ok := stats.Bernoulli(s.rng, tab.prob(splits[i], link.cleanBER, link.dirtyBER))
		if s.Faults != nil {
			if draws.lost>>i&1 != 0 {
				ok = false
			}
		} else if ok && stats.Bernoulli(s.rng, s.AmbientLossProb) {
			ok = false
		}
		if draws.ambient>>i&1 != 0 {
			ok = false
		}
		if ok {
			subOK++
			if err := sb.record((startSeq + uint16(i)) & 0x0FFF); err != nil {
				return nil, err
			}
		} else {
			subLost++
		}
	}
	ba := &dot11.BlockAck{RA: s.Scheduler.Src, TA: s.Scheduler.Dst, StartSeq: sb.startSeq, Bitmap: sb.received}
	baLost := draws.flags&drawBALost != 0

	res := &RoundResult{
		TxBits:   txBits,
		Detected: detected,
		BALost:   baLost,
		SNRDb:    phy.SNRToDb(link.snr),
	}
	if baLost {
		res.BitErrors = len(txBits)
	} else {
		allBits, err := ba.BitmapBits(total)
		if err != nil {
			return nil, err
		}
		res.RxBits = allBits[trigLen:]
		for i := range txBits {
			if txBits[i] != res.RxBits[i] {
				res.BitErrors++
			}
		}
	}

	access, err := s.Contender.AccessDelay(s.BusyProb, time.Millisecond)
	if err != nil {
		return nil, err
	}
	baAir, err := dot11.BlockAckAirtime(s.BARateMbps)
	if err != nil {
		return nil, err
	}
	res.Airtime = access + plan.ppdu + dot11.SIFS + baAir

	if o := s.Obs; o != nil {
		s.roundSeq++
		m := o.Core
		m.Rounds.Inc()
		if detected {
			m.Detections.Inc()
		} else {
			m.TriggerMisses.Inc()
		}
		if baLost {
			m.BALosses.Inc()
		}
		m.SubframesOK.Add(int64(subOK))
		m.SubframesLost.Add(int64(subLost))
		m.Bits.Add(int64(len(txBits)))
		m.BitErrors.Add(int64(res.BitErrors))
		slots, busy := s.Contender.LastSlots()
		m.BackoffSlots.Add(int64(slots))
		m.BusySlots.Add(int64(busy))
		m.RoundAirtime.Observe(res.Airtime.Microseconds())
		m.DecodeModelEvals.Add(int64(2 * linkEvals))
		m.SuccessProbEvals.Add(int64(tab.evals))
		m.ChannelPathEvals.Add(phasors)
		if o.Trace != nil {
			o.Trace.Record(obs.Event{
				Kind:      "round",
				Trial:     s.TraceID,
				Labels:    s.TraceLabels,
				Round:     s.roundSeq,
				Detected:  detected,
				BALost:    baLost,
				Bits:      len(txBits),
				BitErrors: res.BitErrors,
				AirtimeUs: res.Airtime.Microseconds(),
				SNRmDb:    int64(math.Round(res.SNRDb * 1000)),
			})
		}
	}
	return res, nil
}

// TestRoundMaskMatchesScoreboardOracle runs QueryRound and the oracle
// above on twin systems, round by round, with and without faults,
// traffic, brownouts, block-ACK loss and a world tape, and requires every
// RoundResult field, the fault tally, every counter and histogram the
// rounds record, and every trace event to be equal: deciding the round's
// subframes as one mask, and reading the world in one place, moves no
// draw and no bit.
func TestRoundMaskMatchesScoreboardOracle(t *testing.T) {
	harsh, err := fault.Named("harsh")
	if err != nil {
		t.Fatal(err)
	}
	office, err := traffic.Named("office")
	if err != nil {
		t.Fatal(err)
	}
	// Every round event at once: bursts, misses, lost block ACKs and
	// brownouts of random placement, often in the same round.
	dense := fault.Profile{
		PGoodBad: 0.2, PBadGood: 0.3, LossGood: 0.05, LossBad: 0.9,
		TriggerMissProb: 0.2, BALossProb: 0.3, BrownoutProb: 0.5, BrownoutSubframes: 20,
	}
	cases := []struct {
		name    string
		tagX    float64
		faults  *fault.Profile
		traffic bool
		taped   bool
	}{
		{"plain", 1, nil, false, false},
		{"mid-span", 4, nil, false, false},
		{"harsh", 1, &harsh, false, false},
		{"traffic", 1, nil, true, false},
		{"dense+traffic", 2, &dense, true, false},
		{"taped", 1, &dense, true, true},
		{"taped-plain", 3, nil, false, true},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seed := int64(100 + ci)
			build := func() (*System, *channel.Environment, error) {
				sys, env, err := linkWorld(c.tagX, seed)()
				if err != nil {
					return nil, nil, err
				}
				sys.Faults, sys.Traffic = nil, nil
				if c.faults != nil {
					if sys.Faults, err = fault.NewInjector(*c.faults, stats.SubSeed(seed, "fault")); err != nil {
						return nil, nil, err
					}
				}
				if c.traffic {
					if sys.Traffic, err = traffic.NewGenerator(office, stats.SubSeed(seed, "traffic")); err != nil {
						return nil, nil, err
					}
				}
				return sys, env, nil
			}
			type twin struct {
				sys *System
				env *channel.Environment
				o   *obs.Observer
			}
			var twins [2]twin
			oracleSeq := uint16(0x0F80) // wraps within the first rounds
			for i := range twins {
				sys, env, err := build()
				if c.taped {
					// The first reader is the build itself.
					sys, err = NewLinkTape(build).Reader(nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				o := obs.NewObserver(nil, obs.NewRecorder(1<<14))
				sys.Instrument(o, ci, c.name)
				twins[i] = twin{sys, env, o}
			}
			bitsRNG := stats.NewRNG(seed)
			for r := range 150 {
				n := twins[0].sys.Spec.DataLen
				if r%3 == 1 {
					n = bitsRNG.Intn(n + 1) // a short round, padded with idle 1s
				}
				bits := stats.RandomBits(bitsRNG, n)
				var res [2]*RoundResult
				for i, tw := range twins {
					if !c.taped {
						tw.env.Advance(channel.RoundStepS)
					}
					round := tw.sys.QueryRound
					if i == 1 {
						round = func(b []byte) (*RoundResult, error) { return oracleRound(tw.sys, &oracleSeq, b) }
					}
					if res[i], err = round(bits); err != nil {
						t.Fatalf("round %d: %v", r, err)
					}
				}
				if !reflect.DeepEqual(res[0], res[1]) {
					t.Fatalf("round %d: QueryRound gave %+v, the oracle %+v", r, res[0], res[1])
				}
			}
			a, b := twins[0], twins[1]
			if a.sys.Injected != b.sys.Injected {
				t.Fatalf("fault tally %+v, the oracle's %+v", a.sys.Injected, b.sys.Injected)
			}
			if n := a.sys.Injected; c.faults == &dense && (n.BALosses == 0 || n.TriggerMisses == 0 || n.Brownouts == 0) {
				t.Fatalf("the dense profile drew %+v; every kind of event must occur", n)
			}
			sa, sb := a.o.Registry.Snapshot().Deterministic(), b.o.Registry.Snapshot().Deterministic()
			if sa.Counters["core.rounds"] != 150 {
				t.Fatalf("core.rounds %d over 150 rounds", sa.Counters["core.rounds"])
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("metrics %+v, the oracle's %+v", sa, sb)
			}
			if !reflect.DeepEqual(a.o.Trace.Events(), b.o.Trace.Events()) {
				t.Fatal("trace events differ from the oracle's")
			}
		})
	}
}
