package core

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"witag/internal/channel"
	"witag/internal/dot11"
	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/stats"
	"witag/internal/tag"
	"witag/internal/traffic"
)

// linkWorld returns a build of the Figure 4 LoS room with the tag at tagX,
// a bursty fault injector and office ambient traffic, every stream seeded
// from seed: the same world at every call.
func linkWorld(tagX float64, seed int64) func() (*System, *channel.Environment, error) {
	return func() (*System, *channel.Environment, error) {
		env := channel.NewEnvironment(seed)
		env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
		env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
		env.AddReflector(channel.Point{X: -1, Y: 0}, 40)
		env.AddReflector(channel.Point{X: 9, Y: 0}, 40)
		env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
		sys, err := linkReader(tagX, seed)(env)
		if err != nil {
			return nil, nil, err
		}
		p, err := fault.Named("bursty")
		if err != nil {
			return nil, nil, err
		}
		if sys.Faults, err = fault.NewInjector(p, stats.SubSeed(seed, "fault")); err != nil {
			return nil, nil, err
		}
		tp, err := traffic.Named("office")
		if err != nil {
			return nil, nil, err
		}
		if sys.Traffic, err = traffic.NewGenerator(tp, stats.SubSeed(seed, "traffic")); err != nil {
			return nil, nil, err
		}
		return sys, env, nil
	}
}

// linkReader builds linkWorld(tagX, seed)'s system over env, with no
// fault or traffic layer: a reader of the world's tape (LinkTape.Reader).
func linkReader(tagX float64, seed int64) func(*channel.Environment) (*System, error) {
	return func(env *channel.Environment) (*System, error) {
		return NewSystem(env,
			channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
			channel.Point{X: tagX, Y: 0.3}, 68, seed)
	}
}

// tapeRound is what a round reports, with its SNR as raw bits so the
// comparison is bit for bit, and the system's fault tally and traffic
// counters after it.
type tapeRound struct {
	Detected, BALost bool
	BitErrors        int
	RxBits           []byte
	SNR              uint64
	Faults           [4]int
	Traffic          [4]int64
}

// linkBits is a link state's four floats as raw bits: SNR, distortion,
// clean BER and dirty BER.
func linkBits(st linkState) [4]uint64 {
	return [4]uint64{math.Float64bits(st.snr), math.Float64bits(st.distortion),
		math.Float64bits(st.cleanBER), math.Float64bits(st.dirtyBER)}
}

// linkRounds runs rounds query rounds on sys, which must have an observer
// of its own, advancing env before each one when env is non-nil, and
// yields to the scheduler at a random pace drawn from pace (nil: never).
func linkRounds(sys *System, env *channel.Environment, rounds int, pace *rand.Rand) ([]tapeRound, error) {
	rng := stats.NewRNG(5)
	out := make([]tapeRound, 0, rounds)
	for r := 0; r < rounds; r++ {
		if env != nil {
			env.Advance(channel.RoundStepS)
		}
		res, err := sys.QueryRound(stats.RandomBits(rng, sys.Spec.DataLen))
		if err != nil {
			return nil, err
		}
		in, tm := sys.Injected, sys.Obs.Traffic
		out = append(out, tapeRound{res.Detected, res.BALost, res.BitErrors, res.RxBits,
			math.Float64bits(res.SNRDb),
			[4]int{in.SubframesLost, in.TriggerMisses, in.BALosses, in.Brownouts},
			[4]int64{tm.Rounds.Value(), tm.Bursts.Value(), tm.SubframesMask.Value(), tm.StateSwitches.Value()}})
		for pace != nil && pace.Intn(3) == 0 {
			runtime.Gosched()
		}
	}
	return out, nil
}

// TestLinkTapeConcurrentReadersMatchLocal has several systems of one world
// — bursty faults and office traffic included — read one tape
// concurrently, each at its own random pace: the first the world's build
// itself, the rest handed out by the tape (LinkTape.Reader), borrowing
// the world's environment, injector and generator, which the tape
// advances and draws as they read. It requires
// every round of every reader to equal a system that evaluates the link
// and draws its faults and traffic itself, bit for bit, with the same
// fault and traffic counts after it. Every taped round's whole link state must equal a
// local evaluation of the same world, bit for bit. The tape must evaluate
// each round exactly once, so the readers' work counters sum to the local
// system's.
func TestLinkTapeConcurrentReadersMatchLocal(t *testing.T) {
	const rounds, readers = 700, 6
	build := linkWorld(2, 31)
	local, env, err := build()
	if err != nil {
		t.Fatal(err)
	}
	localCamp := obs.NewCampaign("local", obs.CampaignOptions{})
	local.Instrument(localCamp.Observer, 0, "local")
	want, err := linkRounds(local, env, rounds, nil)
	if err != nil {
		t.Fatal(err)
	}

	tape := NewLinkTape(build)
	camps := make([]*obs.Campaign, readers)
	got := make([][]tapeRound, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := range readers {
		sys, err := tape.Reader(linkReader(2, 31))
		if err != nil {
			t.Fatal(err)
		}
		camps[i] = obs.NewCampaign("taped", obs.CampaignOptions{})
		sys.Instrument(camps[i].Observer, i, "taped")
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Readers stop at different rounds, so the last rounds are
			// evaluated by whichever reader gets that far.
			got[i], errs[i] = linkRounds(sys, nil, rounds-37*i, rand.New(rand.NewSource(int64(i))))
		}()
	}
	wg.Wait()
	for i := range readers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[:len(got[i])]) {
			for r := range got[i] {
				if !reflect.DeepEqual(got[i][r], want[r]) {
					t.Fatalf("reader %d, round %d: tape gave %+v, local evaluation %+v", i, r, got[i][r], want[r])
				}
			}
		}
	}
	if n := tape.n; n != rounds {
		t.Fatalf("tape recorded %d rounds, want %d", n, rounds)
	}
	fresh, freshEnv, err := build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := fresh.geom()
	if err != nil {
		t.Fatal(err)
	}
	var scratch linkScratch
	for r := range rounds {
		freshEnv.Advance(channel.RoundStepS)
		st, _, _, err := scratch.eval(freshEnv, &g, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := tape.chunks[r/tapeChunk][r%tapeChunk].link; linkBits(got) != linkBits(st) {
			t.Fatalf("round %d: the tape holds link %v, a local evaluation %v", r, linkBits(got), linkBits(st))
		}
	}
	last := want[rounds-1]
	if last.Faults[0] == 0 || last.Faults[1] == 0 || last.Faults[2] == 0 || last.Faults[3] == 0 || last.Traffic[1] == 0 {
		t.Fatalf("the world drew too few events to compare: faults %v, traffic %v", last.Faults, last.Traffic)
	}
	w := localCamp.Registry.Snapshot().Counters
	for _, c := range []string{"core.channel_path_evals", "core.decode_model_evals"} {
		var sum int64
		for _, camp := range camps {
			sum += camp.Registry.Snapshot().Counters[c]
		}
		if w[c] == 0 || sum != w[c] {
			t.Errorf("%s: readers counted %d, the local system %d", c, sum, w[c])
		}
	}
}

// TestLinkTapeRejectsOtherLink: a reader whose MCS, positions, tag
// coefficients or query subframe counts differ from its tape's gets an
// error at its first round, never the tape's round; a system the tape did
// not hand out gets one too; and a failed build reaches every Reader
// call. (A reader with a fault injector or traffic generator of its own
// is refused by Reader itself: TestLinkTapeReadersBorrowOneWorld.)
func TestLinkTapeRejectsOtherLink(t *testing.T) {
	mcs4, err := dot11.HTMCS(4)
	if err != nil {
		t.Fatal(err)
	}
	// want is the part of the world each edit changes, as the error names it.
	edits := map[string]struct {
		want   string
		reader func(s *System)
	}{
		"mcs":      {want: "link", reader: func(s *System) { s.Spec.MCS = mcs4 }},
		"client":   {want: "link", reader: func(s *System) { s.ClientPos.X += 0.1 }},
		"ap":       {want: "link", reader: func(s *System) { s.APPos.Y = -0.2 }},
		"tag":      {want: "link", reader: func(s *System) { s.TagPos.X = 3 }},
		"gain":     {want: "link", reader: func(s *System) { s.Tag.Switch.Gain *= 1.01 }},
		"excess":   {want: "link", reader: func(s *System) { s.Tag.GroupDelayNs += 0.5 }},
		"flip":     {want: "link", reader: func(s *System) { s.Tag.FlipState = tag.Open }},
		"data_len": {want: "query", reader: func(s *System) { s.Spec.TriggerLen, s.Spec.DataLen = 5, 59 }},
		"total":    {want: "query", reader: func(s *System) { s.Spec.DataLen--; s.Spec.PayloadSizes = s.Spec.PayloadSizes[:63] }},
		"control":  {},
	}
	for name, edit := range edits {
		tape := NewLinkTape(linkWorld(2, 8))
		if _, err := tape.Reader(linkReader(2, 8)); err != nil {
			t.Fatal(err)
		}
		sys, err := tape.Reader(func(env *channel.Environment) (*System, error) {
			sys, err := linkReader(2, 8)(env)
			if err == nil && edit.reader != nil {
				edit.reader(sys)
			}
			return sys, err
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.QueryRound(nil)
		if name == "control" {
			if err != nil {
				t.Fatalf("control: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), edit.want) || !strings.Contains(err.Error(), "differs from its tape") {
			t.Errorf("%s: QueryRound returned %v, want a mismatch of the %s", name, err, edit.want)
		}
	}

	// A system attached by hand, on a tape no Reader opened.
	stray, _, err := linkWorld(2, 8)()
	if err != nil {
		t.Fatal(err)
	}
	stray.Link = NewLinkTape(linkWorld(2, 8))
	if _, err := stray.QueryRound(nil); !errors.Is(err, errTapeUnopened) {
		t.Errorf("a system the tape did not hand out: QueryRound returned %v", err)
	}

	failing := NewLinkTape(func() (*System, *channel.Environment, error) { return nil, nil, nil })
	for range 2 {
		if _, err := failing.Reader(linkReader(2, 8)); err == nil || !strings.Contains(err.Error(), "link tape build") {
			t.Errorf("failed build: Reader returned %v", err)
		}
	}
}

// TestLinkTapeReadersBorrowOneWorld: the readers a tape hands out share
// one build of the world. The build runs once and is the first reader;
// every later reader is built over the tape's environment and carries the
// tape's fault injector and traffic generator. Releasing a reader leaves
// those layers to the tape, so the next reader, reading rounds no reader
// has reached, still gets every round a local system gets, bit for bit. A
// reader that brings an environment or layers of its own is refused at
// once, and one whose link or query differs at its first round.
func TestLinkTapeReadersBorrowOneWorld(t *testing.T) {
	const rounds, readers = 240, 3
	local, env, err := linkWorld(2, 31)()
	if err != nil {
		t.Fatal(err)
	}
	local.Instrument(obs.NewObserver(nil, nil), 0, "local")
	want, err := linkRounds(local, env, rounds, nil)
	if err != nil {
		t.Fatal(err)
	}

	builds := 0
	tape := NewLinkTape(func() (*System, *channel.Environment, error) {
		builds++
		return linkWorld(2, 31)()
	})
	defer tape.Release()
	for i := range readers {
		sys, err := tape.Reader(linkReader(2, 31))
		if err != nil {
			t.Fatal(err)
		}
		if sys.Link != tape || sys.Env != tape.env || sys.Faults != tape.faults || sys.Traffic != tape.traffic {
			t.Fatalf("reader %d: Link, Env, Faults or Traffic is not its tape's", i)
		}
		sys.Instrument(obs.NewObserver(nil, nil), i, "reader")
		n := rounds * (i + 1) / readers
		got, err := linkRounds(sys, nil, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[:n]) {
			t.Fatalf("reader %d: its %d rounds differ from a local system's", i, n)
		}
		sys.Release()
	}
	if builds != 1 || tape.faults == nil || tape.traffic == nil {
		t.Fatalf("%d builds for %d readers; the tape holds faults %v, traffic %v", builds, readers, tape.faults, tape.traffic)
	}

	download, err := traffic.Named("download")
	if err != nil {
		t.Fatal(err)
	}
	calm, err := fault.Named("calm")
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]struct {
		edit       func(s *System)
		firstRound bool // refused at its first round, not by Reader
	}{
		"environment": {edit: func(s *System) { s.Env = channel.NewEnvironment(31) }},
		"faults": {edit: func(s *System) {
			if s.Faults, err = fault.NewInjector(calm, 1); err != nil {
				t.Fatal(err)
			}
		}},
		"traffic": {edit: func(s *System) {
			if s.Traffic, err = traffic.NewGenerator(download, 1); err != nil {
				t.Fatal(err)
			}
		}},
		"tag":   {edit: func(s *System) { s.TagPos.X = 3 }, firstRound: true},
		"query": {edit: func(s *System) { s.Spec.TriggerLen, s.Spec.DataLen = 5, 59 }, firstRound: true},
	}
	for name, e := range edits {
		sys, err := tape.Reader(func(env *channel.Environment) (*System, error) {
			sys, err := linkReader(2, 31)(env)
			if err == nil {
				e.edit(sys)
			}
			return sys, err
		})
		if !e.firstRound {
			if err == nil || !strings.Contains(err.Error(), "its own") {
				t.Errorf("%s: Reader returned %v, want a refusal of the reader's own layers", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sys.QueryRound(nil); err == nil || !strings.Contains(err.Error(), "differs from its tape") {
			t.Errorf("%s: QueryRound returned %v, want a mismatch with the tape", name, err)
		}
	}
	if builds != 1 {
		t.Fatalf("%d builds after the refused readers", builds)
	}
}

// fuzzBytes hands out a fuzz input's bytes one at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// prob maps the next byte onto [0,1], both ends included.
func (b *fuzzBytes) prob() float64 { return float64(b.next()) / 255 }

// fuzzProfiles derives a valid fault profile and a valid traffic profile
// from raw.
func fuzzProfiles(raw fuzzBytes) (fault.Profile, traffic.Profile) {
	fp := fault.Profile{
		PGoodBad: raw.prob(), PBadGood: raw.prob(), LossGood: raw.prob(), LossBad: raw.prob(),
		TriggerMissProb: raw.prob(), BALossProb: raw.prob(), BrownoutProb: raw.prob(),
		BrownoutSubframes: 1 + int(raw.next()%70),
	}
	n := 1 + int(raw.next()%3)
	tp := traffic.Profile{Start: int(raw.next()) % n, Trans: make([][]float64, n)}
	for i := range n {
		tp.States = append(tp.States, traffic.State{
			ArrivalsPerRound:   float64(raw.next()) / 16,
			MeanBurstSubframes: 0.5 + float64(raw.next())/8,
		})
		row, sum := make([]float64, n), 0.0
		for j := range row {
			row[j] = float64(raw.next())
			sum += row[j]
		}
		if sum == 0 {
			row[i], sum = 1, 1
		}
		for j := range row {
			row[j] /= sum
		}
		tp.Trans[i] = row
	}
	return fp, tp
}

// FuzzLinkTapeDraws: for random valid fault and traffic profiles, seeds
// and queries of up to dot11.MaxSubframes subframes, every round a tape
// records must hold exactly what the hooks return when called directly,
// in the fault package's order, on a twin injector and generator of the
// same seeds: the trigger and block-ACK verdicts, the brownout window,
// one lost bit and one ambient bit per subframe (bit 63 included) and
// the traffic counts. The twin counts its draws through the same count
// as QueryRound, and a taped reader must count and trace what the twin
// does: System.Injected, the fault.* and traffic.* counters and the fault
// trace, which must also hold the events the hooks drew, in their order.
func FuzzLinkTapeDraws(f *testing.F) {
	all := bytes.Repeat([]byte{255}, 64)
	// 4+60 subframes, every one lost and masked: bit 63 set.
	f.Add(int64(1), uint16(7*59+2), byte(3), all)
	// 8+56 subframes, bursty.
	f.Add(int64(7), uint16(7*55+6), byte(3), []byte{30, 60, 2, 200, 5, 9, 80, 8})
	// 2+1 subframes, faults only.
	f.Add(int64(42), uint16(0), byte(1), []byte{3, 100, 1, 150, 0, 0, 0})
	// 5+21 subframes, traffic only.
	f.Add(int64(-5), uint16(7*20+3), byte(2), []byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 40, 16, 9, 30, 200, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, shape uint16, layers byte, raw []byte) {
		trig := 2 + int(shape%7)
		data := 1 + int(shape/7)%(dot11.MaxSubframes-trig)
		fp, tp := fuzzProfiles(raw)
		build := func() (*System, *channel.Environment, error) {
			env := channel.NewEnvironment(seed)
			sys, err := NewSystem(env, channel.Point{}, channel.Point{X: 6}, channel.Point{X: 3, Y: 0.3}, 68, seed)
			if err != nil {
				return nil, nil, err
			}
			sys.Spec.TriggerLen, sys.Spec.DataLen, sys.Spec.PayloadSizes = trig, data, nil
			if layers&1 != 0 {
				if sys.Faults, err = fault.NewInjector(fp, stats.SubSeed(seed, "fault")); err != nil {
					return nil, nil, err
				}
			}
			if layers&2 != 0 {
				if sys.Traffic, err = traffic.NewGenerator(tp, stats.SubSeed(seed, "traffic")); err != nil {
					return nil, nil, err
				}
			}
			return sys, env, nil
		}
		twin, _, err := build()
		if err != nil {
			t.Fatal(err)
		}
		tape := NewLinkTape(build)
		reader, err := tape.Reader(nil) // the first reader is the build itself
		if err != nil {
			t.Fatal(err)
		}
		ro, to := obs.NewObserver(nil, obs.NewRecorder(1<<12)), obs.NewObserver(nil, obs.NewRecorder(1<<12))
		reader.Instrument(ro, 1, "fuzz")
		twin.Instrument(to, 1, "fuzz")
		total := trig + data
		var outcomes []string // the fault events the hooks drew, in order
		for r := range 6 {
			if _, err := reader.QueryRound(nil); err != nil {
				t.Fatal(err)
			}
			var want roundDraws
			if in := twin.Faults; in != nil {
				if in.TriggerMissed() {
					want.flags |= drawTrigMiss
					outcomes = append(outcomes, "trigger_miss")
				}
				if start, length, active := in.BrownoutWindow(data); active {
					want.brownStart, want.brownLen = uint8(start), uint8(length)
					outcomes = append(outcomes, "brownout")
				}
				for i := range total {
					if in.SubframeLost() {
						want.lost |= 1 << i
					}
				}
				if in.BALost() {
					want.flags |= drawBALost
					outcomes = append(outcomes, "ba_loss")
				}
				if fp.LossGood == 1 && fp.LossBad == 1 && bits.OnesCount64(want.lost) != total {
					t.Fatalf("round %d: certain loss lost only %064b of %d subframes", r, want.lost, total)
				}
			}
			if g := twin.Traffic; g != nil {
				mask, rd := g.RoundMask(total)
				for i, hit := range mask {
					if hit {
						want.ambient |= 1 << i
					}
				}
				want.bursts, want.masked = int32(rd.Bursts), uint8(rd.Masked)
				if rd.Switched {
					want.flags |= drawSwitched
				}
			}
			want.count(twin)
			if got := tape.chunks[0][r].draws; got != want {
				t.Fatalf("round %d: the tape recorded %+v, the hooks drew %+v", r, got, want)
			}
		}
		if reader.Injected != twin.Injected {
			t.Fatalf("reader tallied faults %+v, the twin %+v", reader.Injected, twin.Injected)
		}
		rc, tc := ro.Registry.Snapshot().Counters, to.Registry.Snapshot().Counters
		for name, v := range tc {
			if (strings.HasPrefix(name, "fault.") || strings.HasPrefix(name, "traffic.")) && rc[name] != v {
				t.Fatalf("%s: reader counted %d, the twin %d", name, rc[name], v)
			}
		}
		if n := int64(reader.Injected.SubframesLost); rc["fault.subframes_lost"] != n {
			t.Fatalf("fault.subframes_lost %d, System.Injected %d", rc["fault.subframes_lost"], n)
		}
		if twin.Traffic != nil && rc["traffic.rounds"] != 6 {
			t.Fatalf("traffic.rounds %d over 6 rounds", rc["traffic.rounds"])
		}
		var faults []obs.Event
		for _, e := range ro.Trace.Events() {
			if e.Kind == "fault" {
				faults = append(faults, e)
			}
		}
		tw := to.Trace.Events()
		if !reflect.DeepEqual(faults, tw) && len(faults)+len(tw) > 0 {
			t.Fatalf("reader traced %+v, the twin %+v", faults, tw)
		}
		traced := make([]string, len(tw))
		for i, e := range tw {
			traced[i] = e.Outcome
		}
		if !slices.Equal(traced, outcomes) {
			t.Fatalf("the twin traced %v, the hooks drew %v", traced, outcomes)
		}
	})
}
