package core

import (
	"slices"
	"testing"
	"time"

	"witag/internal/channel"
	"witag/internal/crypto80211"
	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/stats"
)

// testbed builds the Figure 4 LoS room: client at the origin, AP 8 m away,
// wall reflectors and a few people.
func testbed(t *testing.T, tagX float64, seed int64) (*System, *channel.Environment) {
	t.Helper()
	env := channel.NewEnvironment(seed)
	env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
	env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
	env.AddReflector(channel.Point{X: -1, Y: 0}, 40)
	env.AddReflector(channel.Point{X: 9, Y: 0}, 40)
	env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
	sys, err := NewSystem(env,
		channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
		channel.Point{X: tagX, Y: 0.3}, 68, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sys, env
}

func runRounds(t *testing.T, sys *System, env *channel.Environment, rounds int, seed int64) (errs, total int, detected int) {
	t.Helper()
	rng := stats.NewRNG(seed)
	for r := 0; r < rounds; r++ {
		env.Advance(0.05)
		bits := stats.RandomBits(rng, sys.Spec.DataLen)
		res, err := sys.QueryRound(bits)
		if err != nil {
			t.Fatal(err)
		}
		errs += res.BitErrors
		total += len(res.TxBits)
		if res.Detected {
			detected++
		}
	}
	return errs, total, detected
}

func TestQueryRoundLowBERNearClient(t *testing.T) {
	sys, env := testbed(t, 1, 11)
	errs, total, detected := runRounds(t, sys, env, 60, 1)
	if detected < 55 {
		t.Fatalf("tag detected only %d/60 queries at 1 m", detected)
	}
	ber := float64(errs) / float64(total)
	if ber > 0.03 {
		t.Fatalf("BER at 1 m = %v, want ≈0.01", ber)
	}
	if ber == 0 {
		t.Fatal("ambient loss floor missing: BER exactly 0 over 3600 bits is implausible")
	}
}

func TestQueryRoundMidSpanBERHigher(t *testing.T) {
	near, envN := testbed(t, 1, 12)
	mid, envM := testbed(t, 4, 12)
	errsN, totalN, _ := runRounds(t, near, envN, 80, 2)
	errsM, totalM, _ := runRounds(t, mid, envM, 80, 2)
	berN := float64(errsN) / float64(totalN)
	berM := float64(errsM) / float64(totalM)
	if berM <= berN {
		t.Fatalf("mid-span BER %v should exceed near-client BER %v (1/(Ds·Dr)² law)", berM, berN)
	}
}

func TestQueryRoundAllOnesAndAllZeros(t *testing.T) {
	sys, env := testbed(t, 1, 13)
	env.Advance(0.1)
	ones := make([]byte, sys.Spec.DataLen)
	for i := range ones {
		ones[i] = 1
	}
	res, err := sys.QueryRound(ones)
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() > 0.05 {
		t.Fatalf("all-ones BER = %v", res.BER())
	}
	zeros := make([]byte, sys.Spec.DataLen)
	res, err = sys.QueryRound(zeros)
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() > 0.05 {
		t.Fatalf("all-zeros BER = %v", res.BER())
	}
}

func TestQueryRoundPadsShortInput(t *testing.T) {
	sys, env := testbed(t, 1, 14)
	env.Advance(0.1)
	res, err := sys.QueryRound([]byte{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TxBits) != sys.Spec.DataLen {
		t.Fatalf("TxBits = %d", len(res.TxBits))
	}
	for i := 3; i < len(res.TxBits); i++ {
		if res.TxBits[i] != 1 {
			t.Fatal("padding bits must be 1 (tag idle)")
		}
	}
	if _, err := sys.QueryRound(make([]byte, sys.Spec.DataLen+1)); err == nil {
		t.Fatal("oversized bit vector accepted")
	}
}

func TestQueryRoundAirtimeAndRate(t *testing.T) {
	sys, env := testbed(t, 2, 15)
	env.Advance(0.1)
	res, err := sys.QueryRound(make([]byte, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Airtime < 1*time.Millisecond || res.Airtime > 2*time.Millisecond {
		t.Fatalf("round airtime = %v, expected ≈1.5 ms", res.Airtime)
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: ≈40 Kbps.
	if rate < 35_000 || rate < 0 || rate > 46_000 {
		t.Fatalf("tag rate = %v bps, want ≈40 Kbps", rate)
	}
}

func TestEncryptionTransparency(t *testing.T) {
	// The same deployment, WPA2-encrypted: BER must be statistically
	// indistinguishable — the tag never looks inside MPDUs.
	open, envO := testbed(t, 1, 16)
	enc, envE := testbed(t, 1, 16)
	cipher, err := crypto80211.NewCCMP(make([]byte, 16), [6]byte{2, 0, 0, 0, 0, 0x10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// SetCipher re-shapes for the cipher's per-MPDU overhead (CCMP forces
	// 2-tick subframes at this MCS).
	if err := enc.SetCipher(cipher); err != nil {
		t.Fatal(err)
	}
	if enc.Spec.TicksPerSubframe != 2 {
		t.Fatalf("expected CCMP to force 2-tick subframes, got %d", enc.Spec.TicksPerSubframe)
	}
	errsO, totalO, _ := runRounds(t, open, envO, 60, 3)
	errsE, totalE, _ := runRounds(t, enc, envE, 60, 3)
	berO := float64(errsO) / float64(totalO)
	berE := float64(errsE) / float64(totalE)
	if berE > berO+0.02 {
		t.Fatalf("encrypted BER %v far above open BER %v", berE, berO)
	}
	// And WEP too.
	wep, envW := testbed(t, 1, 16)
	wcipher, _ := crypto80211.NewWEP([]byte("12345"), 0)
	if err := wep.SetCipher(wcipher); err != nil {
		t.Fatal(err)
	}
	errsW, totalW, _ := runRounds(t, wep, envW, 60, 3)
	if berW := float64(errsW) / float64(totalW); berW > berO+0.02 {
		t.Fatalf("WEP BER %v far above open BER %v", berW, berO)
	}
}

func TestNLoSThroughWallsStillWorks(t *testing.T) {
	// Location A-like: AP in another room ~7 m away through a wall, tag
	// 1 m from the client.
	env := channel.NewEnvironment(17)
	env.AddWall(channel.Point{X: 3, Y: -5}, channel.Point{X: 3, Y: 5}, 8, "drywall")
	env.AddReflector(channel.Point{X: 1, Y: 2}, 50)
	env.AddReflector(channel.Point{X: 5, Y: -2}, 50)
	env.AddScatterers(3, 0, -3, 7, 3, 15, 1.0)
	sys, err := NewSystem(env,
		channel.Point{X: 0, Y: 0}, channel.Point{X: 7, Y: 0},
		channel.Point{X: 1, Y: 0.3}, 68, 17)
	if err != nil {
		t.Fatal(err)
	}
	errs, total, detected := runRounds(t, sys, env, 60, 4)
	if detected < 55 {
		t.Fatalf("detection failed in NLoS: %d/60", detected)
	}
	if ber := float64(errs) / float64(total); ber > 0.05 {
		t.Fatalf("NLoS BER = %v", ber)
	}
}

func TestDetectionFailsWhenTagFarFromClient(t *testing.T) {
	// A tag 40 m away with heavy walls can't hear the trigger: all rounds
	// read as all-ones.
	env := channel.NewEnvironment(18)
	for x := 5; x < 40; x += 7 {
		env.AddWall(channel.Point{X: float64(x), Y: -20}, channel.Point{X: float64(x), Y: 20}, 15, "concrete")
	}
	sys, err := NewSystem(env,
		channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
		channel.Point{X: 40, Y: 0.3}, 68, 18)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.QueryRound(make([]byte, 20)) // all zeros
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatal("tag should not detect through 35 m of concrete")
	}
	// Undetected tag ⇒ no corruption ⇒ zeros all read back as ones.
	if res.BitErrors < 15 {
		t.Fatalf("expected ~20 bit errors, got %d", res.BitErrors)
	}
}

func TestShapeForTickBoundaryErrorsBounded(t *testing.T) {
	sys, _ := testbed(t, 3, 19)
	tick := 20 * time.Microsecond
	errsS, err := boundaryErrors(sys.Spec, tick, sys.cipherOverhead())
	if err != nil {
		t.Fatal(err)
	}
	// Dither bound: 2 on-air bytes ≈ 0.82 µs at QPSK 3/4.
	for i, e := range errsS {
		if e > 1e-6 || e < -1e-6 {
			t.Fatalf("boundary %d off grid by %v s", i, e)
		}
	}
}

func TestShapeForTickErrors(t *testing.T) {
	spec := DefaultQuerySpec()
	if err := spec.ShapeForTick(0, 1, 0); err == nil {
		t.Fatal("zero tick accepted")
	}
	if err := spec.ShapeForTick(time.Microsecond, 1, 0); err == nil {
		t.Fatal("sub-minimum subframe target accepted")
	}
}

func TestQuerySpecValidate(t *testing.T) {
	spec := DefaultQuerySpec()
	spec.TriggerLen = 1
	if spec.Validate() == nil {
		t.Fatal("1 trigger subframe accepted")
	}
	spec = DefaultQuerySpec()
	spec.DataLen = 0
	if spec.Validate() == nil {
		t.Fatal("0 data subframes accepted")
	}
	spec = DefaultQuerySpec()
	spec.DataLen = 63
	if spec.Validate() == nil {
		t.Fatal("67 subframes accepted")
	}
	spec = DefaultQuerySpec()
	spec.PayloadSizes = []int{1, 2}
	if spec.Validate() == nil {
		t.Fatal("mismatched PayloadSizes accepted")
	}
	spec = DefaultQuerySpec()
	spec.PayloadSizes = make([]int, spec.Total())
	for i := range spec.PayloadSizes {
		spec.PayloadSizes[i] = 1
	}
	spec.PayloadSizes[9] = 0
	if spec.Validate() == nil {
		t.Fatal("zero-byte payload accepted")
	}
}

func TestEnvelopeAmplitudeFor(t *testing.T) {
	hi := EnvelopeAmplitudeFor(0xFF)
	lo := EnvelopeAmplitudeFor(0x00)
	if hi != 1.0 {
		t.Fatalf("high amplitude = %v", hi)
	}
	if lo != 0.15 {
		t.Fatalf("low amplitude = %v", lo)
	}
	midVal := EnvelopeAmplitudeFor(0x0F)
	if !(lo < midVal && midVal < hi) {
		t.Fatalf("mid amplitude %v not between %v and %v", midVal, lo, hi)
	}
}

func TestRoundResultBEREmpty(t *testing.T) {
	r := &RoundResult{}
	if r.BER() != 0 {
		t.Fatal("empty round BER should be 0")
	}
}

func TestSendFrameOverMultipleRounds(t *testing.T) {
	// End-to-end framing over the air: a sensor reading encoded with FEC,
	// split across query rounds, reassembled and decoded.
	sys, env := testbed(t, 1, 20)
	codec := Codec{FEC: true, InterleaveDepth: 12}
	payload := []byte("battery=3.1V temp=22C")
	bits, err := codec.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	var rx []byte
	for off := 0; off < len(bits); off += sys.Spec.DataLen {
		end := off + sys.Spec.DataLen
		if end > len(bits) {
			end = len(bits)
		}
		env.Advance(0.05)
		res, err := sys.QueryRound(bits[off:end])
		if err != nil {
			t.Fatal(err)
		}
		rx = append(rx, res.RxBits[:end-off]...)
	}
	got, corrected, err := codec.Decode(rx)
	if err != nil {
		t.Fatalf("decode failed (%d corrected): %v", corrected, err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
}

// faultSystem builds the LoS testbed with an attached fault injector.
func faultSystem(t *testing.T, p fault.Profile, seed int64) (*System, *channel.Environment) {
	t.Helper()
	sys, env := testbed(t, 1, seed)
	in, err := fault.NewInjector(p, stats.SubSeed(seed, "fault"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Faults = in
	return sys, env
}

func TestQueryRoundInjectedTriggerMiss(t *testing.T) {
	sys, _ := faultSystem(t, fault.Profile{TriggerMissProb: 1}, 21)
	res, err := sys.QueryRound([]byte{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatal("probability-1 trigger miss still detected")
	}
	if sys.Injected.TriggerMisses != 1 {
		t.Fatalf("trigger-miss tally %d", sys.Injected.TriggerMisses)
	}
}

func TestQueryRoundInjectedBALoss(t *testing.T) {
	sys, _ := faultSystem(t, fault.Profile{BALossProb: 1}, 22)
	res, err := sys.QueryRound([]byte{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BALost {
		t.Fatal("probability-1 BA loss not reported")
	}
	if res.RxBits != nil {
		t.Fatal("lost BA still delivered bits")
	}
	if res.BitErrors != len(res.TxBits) {
		t.Fatalf("lost round charged %d/%d bit errors", res.BitErrors, len(res.TxBits))
	}
	if sys.Injected.BALosses != 1 {
		t.Fatalf("block-ACK-loss tally %d", sys.Injected.BALosses)
	}
}

func TestQueryRoundInjectedBurstLossErasesOnes(t *testing.T) {
	// Permanent bad state with certain loss: every subframe is erased at
	// the AP, the bitmap is all zeros, and exactly the tag's 1-bits read
	// wrong.
	sys, _ := faultSystem(t, fault.Profile{PGoodBad: 1, PBadGood: 0, LossBad: 1}, 23)
	bits := []byte{1, 1, 0, 0, 1}
	res, err := sys.QueryRound(bits)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, b := range res.TxBits {
		if b == 1 {
			ones++
		}
	}
	if res.BitErrors != ones {
		t.Fatalf("all-loss round: %d errors, want the %d transmitted 1s", res.BitErrors, ones)
	}
	for _, b := range res.RxBits {
		if b != 0 {
			t.Fatal("erased subframe read as 1")
		}
	}
}

func TestQueryRoundBrownoutFreezesSwitch(t *testing.T) {
	// A brownout covering the whole round freezes the switch: nothing is
	// corrupted, so (with a clean channel) every bit reads idle 1 and the
	// errors are exactly the 0-bits the tag meant to send.
	sys, _ := faultSystem(t, fault.Profile{BrownoutProb: 1, BrownoutSubframes: 1024}, 24)
	bits := make([]byte, sys.Spec.DataLen) // all zeros
	res, err := sys.QueryRound(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Skip("trigger missed at this seed; brownout claim needs a detected round")
	}
	// The brownout window starts at a random subframe and clips at the
	// round's end, so at least the tail from the start position is frozen.
	if res.BitErrors == 0 {
		t.Fatal("whole-round brownout corrupted nothing yet produced no errors")
	}
	if sys.Injected.Brownouts != 1 {
		t.Fatalf("brownout tally %d", sys.Injected.Brownouts)
	}
}

func TestQueryRoundFaultStreamDeterministic(t *testing.T) {
	p, err := fault.Named("bursty")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int, int) {
		sys, env := testbed(t, 1, 31)
		in, err := fault.NewInjector(p, stats.SubSeed(31, "fault"))
		if err != nil {
			t.Fatal(err)
		}
		sys.Faults = in
		errs, total, _ := runRounds(t, sys, env, 40, 7)
		return errs, total
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("fault rounds not reproducible: %d/%d vs %d/%d", e1, t1, e2, t2)
	}
}

// TestInjectedTallyMatchesHooks: over many rounds of a harsh fault stream,
// System.Injected, the fault.* counters and the fault trace hold exactly
// what a twin injector of the same seed draws through the hooks, in the
// fault package's order — the hooks only draw, and the system counts.
func TestInjectedTallyMatchesHooks(t *testing.T) {
	p, err := fault.Named("harsh")
	if err != nil {
		t.Fatal(err)
	}
	sys, env := faultSystem(t, p, 25)
	o := obs.NewObserver(nil, obs.NewRecorder(1<<12))
	sys.Instrument(o, 3, "tally")
	twin, err := fault.NewInjector(p, stats.SubSeed(25, "fault"))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	runRounds(t, sys, env, rounds, 3)

	var want [4]int // subframes lost, trigger misses, block-ACK losses, brownouts
	var outcomes []string
	for range rounds {
		if twin.TriggerMissed() {
			want[1]++
			outcomes = append(outcomes, "trigger_miss")
		}
		if _, _, active := twin.BrownoutWindow(sys.Spec.DataLen); active {
			want[3]++
			outcomes = append(outcomes, "brownout")
		}
		for range sys.Spec.Total() {
			if twin.SubframeLost() {
				want[0]++
			}
		}
		if twin.BALost() {
			want[2]++
			outcomes = append(outcomes, "ba_loss")
		}
	}
	for i, n := range want {
		if n == 0 {
			t.Fatalf("the stream drew too few events to compare: %v (at %d)", want, i)
		}
	}
	n := sys.Injected
	if got := [4]int{n.SubframesLost, n.TriggerMisses, n.BALosses, n.Brownouts}; got != want {
		t.Fatalf("System.Injected %v, the hooks drew %v", got, want)
	}
	m := o.Fault
	if got := [4]int{int(m.SubframesLost.Value()), int(m.TriggerMisses.Value()), int(m.BALosses.Value()), int(m.Brownouts.Value())}; got != want {
		t.Fatalf("fault counters %v, the hooks drew %v", got, want)
	}
	var traced []string
	for _, e := range o.Trace.Events() {
		if e.Kind == "fault" {
			if e.Trial != 3 || e.Labels != "tally" {
				t.Fatalf("fault event %+v lacks the system's trace identity", e)
			}
			traced = append(traced, e.Outcome)
		}
	}
	if !slices.Equal(traced, outcomes) {
		t.Fatalf("traced %d fault events, the hooks drew %d, in another order or number", len(traced), len(outcomes))
	}
}
