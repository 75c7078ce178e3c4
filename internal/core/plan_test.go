package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"witag/internal/channel"
	"witag/internal/crypto80211"
	"witag/internal/dot11"
	"witag/internal/obs"
	"witag/internal/stats"
)

// planCiphers are the three network modes a query is planned for.
func planCiphers(t testing.TB) map[string]crypto80211.Cipher {
	t.Helper()
	wep, err := crypto80211.NewWEP([]byte("12345"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ccmp, err := crypto80211.NewCCMP(make([]byte, 16), [6]byte{2, 0, 0, 0, 0, 0x10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]crypto80211.Cipher{"open": nil, "WEP": wep, "CCMP": ccmp}
}

// builtPSDU builds and marshals spec's query through a scheduler carrying
// cipher, the reference the spec arithmetic answers to, and checks
// psduLen against it.
func builtPSDU(t *testing.T, what string, spec QuerySpec, cipher crypto80211.Cipher) []byte {
	t.Helper()
	sched := newSched(t)
	sched.Cipher = cipher
	agg, _, err := spec.BuildQuery(sched)
	if err != nil {
		t.Fatal(err)
	}
	psdu, err := agg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := spec.psduLen(overheadOf(cipher)); err != nil || n != len(psdu) {
		t.Fatalf("%s: PSDU %d bytes (%v), built %d", what, n, err, len(psdu))
	}
	return psdu
}

// overheadOf is cipher's per-MPDU expansion, 0 for an open network.
func overheadOf(cipher crypto80211.Cipher) int {
	if cipher == nil {
		return 0
	}
	return cipher.Overhead()
}

// checkPlan compares a plan with the query actually built and marshalled
// through a scheduler carrying cipher.
func checkPlan(t *testing.T, what string, p *queryPlan, spec QuerySpec, cipher crypto80211.Cipher) {
	t.Helper()
	overhead := overheadOf(cipher)
	psdu := builtPSDU(t, what, spec, cipher)
	airs, err := spec.SubframeAirtimes(overhead)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.airs, airs) {
		t.Fatalf("%s: planned airtimes %v, SubframeAirtimes %v", what, p.airs, airs)
	}
	for i := range airs {
		if want := spec.onAirBytesAt(i, overhead) * 8; p.subBits[i] != want {
			t.Fatalf("%s: subframe %d planned %d bits, want %d", what, i, p.subBits[i], want)
		}
	}
	var trig time.Duration
	for _, a := range airs[:spec.TriggerLen] {
		trig += a
	}
	if want := trig / time.Duration(spec.TriggerLen); p.trigMean != want {
		t.Fatalf("%s: planned trigger mean %v, want %v", what, p.trigMean, want)
	}
	ppdu, err := dot11.PPDUAirtime(len(psdu), spec.MCS, spec.Width, spec.GI)
	if err != nil {
		t.Fatal(err)
	}
	if p.ppdu != ppdu {
		t.Fatalf("%s: planned PPDU %v, want %v", what, p.ppdu, ppdu)
	}
}

// TestQueryPlanMatchesBuiltQuery pins the per-spec plan to the real
// A-MPDU build for shaped and unshaped queries on open, WEP and CCMP
// networks, at several rates.
func TestQueryPlanMatchesBuiltQuery(t *testing.T) {
	for name, cipher := range planCiphers(t) {
		overhead := overheadOf(cipher)
		for _, mcsIdx := range []int{0, 2, 4, 7} {
			mcs, err := dot11.HTMCS(mcsIdx)
			if err != nil {
				t.Fatal(err)
			}
			unshaped := DefaultQuerySpec()
			unshaped.MCS = mcs
			shaped := unshaped
			shapedOK := false
			for ticks := 1; ticks <= 8 && !shapedOK; ticks++ {
				shapedOK = shaped.ShapeForTick(20*time.Microsecond, ticks, overhead) == nil
			}
			if !shapedOK {
				t.Fatalf("%s MCS %d: no tick count shapes the query", name, mcsIdx)
			}
			for kind, spec := range map[string]QuerySpec{"unshaped": unshaped, "shaped": shaped} {
				var p queryPlan
				if err := p.compute(spec, overhead); err != nil {
					t.Fatal(err)
				}
				checkPlan(t, name+" "+kind+" MCS "+mcs.String(), &p, spec, cipher)
			}
		}
	}
}

// TestRoundAirtimeMatchesBuiltQuery pins the spec-level round airtime to
// the real A-MPDU build over the §4.1 sweep's whole grid — MCS 0/2/4/7 ×
// 8/16/32/64 subframes × 1/2/4-tick subframes — on open, WEP and CCMP
// networks: the PSDU length to the marshalled aggregate's, and the round
// airtime and tag rate to what that PSDU gives.
func TestRoundAirtimeMatchesBuiltQuery(t *testing.T) {
	shaped := 0
	for name, cipher := range planCiphers(t) {
		overhead := overheadOf(cipher)
		for _, mcsIdx := range []int{0, 2, 4, 7} {
			mcs, err := dot11.HTMCS(mcsIdx)
			if err != nil {
				t.Fatal(err)
			}
			for _, total := range []int{8, 16, 32, 64} {
				for _, ticks := range []int{1, 2, 4} {
					spec := QuerySpec{TriggerLen: 4, DataLen: total - 4, MCS: mcs, Width: dot11.Width20, GI: dot11.LongGI}
					if spec.ShapeForTick(ProtocolGrid, ticks, overhead) != nil {
						continue // below the MPDU minimum, as the sweep skips it
					}
					shaped++
					what := fmt.Sprintf("%s MCS %d, %d subframes × %d ticks", name, mcsIdx, total, ticks)
					psdu := builtPSDU(t, what, spec, cipher)
					want, err := dot11.QueryRoundAirtime(len(psdu), mcs, dot11.Width20, dot11.LongGI, DefaultBARateMbps)
					if err != nil {
						t.Fatal(err)
					}
					got, err := spec.RoundAirtime(overhead, DefaultBARateMbps)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s: round airtime %+v, built query's %+v", what, got, want)
					}
					rate, err := spec.TagRateBps(overhead, DefaultBARateMbps)
					if err != nil {
						t.Fatal(err)
					}
					if r := float64(spec.DataLen) / want.Total().Seconds(); rate != r {
						t.Fatalf("%s: tag rate %v, built query's %v", what, rate, r)
					}
				}
			}
		}
	}
	// 44 of the 48 cells shape on an open network, as in the sweep, and
	// fewer under WEP's and CCMP's per-MPDU overhead: 116 of the 144.
	if shaped != 116 {
		t.Fatalf("%d of the grid's 144 cells shaped, want 116", shaped)
	}
}

func TestQueryPlanRejectsOversizedMPDU(t *testing.T) {
	spec := DefaultQuerySpec()
	spec.PayloadSizes = make([]int, spec.Total())
	for i := range spec.PayloadSizes {
		spec.PayloadSizes[i] = 1
	}
	spec.PayloadSizes[7] = dot11.MaxMPDULen
	var p queryPlan
	if err := p.compute(spec, 0); err == nil {
		t.Fatal("plan accepted an MPDU over the delimiter's 12-bit length")
	}
	if _, _, err := spec.BuildQuery(newSched(t)); err == nil {
		t.Fatal("BuildQuery accepted an MPDU over the delimiter's 12-bit length")
	}
	if _, err := spec.RoundAirtime(0, DefaultBARateMbps); err == nil {
		t.Fatal("RoundAirtime accepted an MPDU over the delimiter's 12-bit length")
	}
}

// TestQueryPlanFollowsSpecChanges changes the spec between rounds — rate
// plus Reshape, an in-place payload edit, a cipher swap — and expects each
// next round to plan for the new query.
func TestQueryPlanFollowsSpecChanges(t *testing.T) {
	sys, env := testbed(t, 2, 31)
	ccmp := planCiphers(t)["CCMP"]
	changes := []struct {
		name   string
		change func()
	}{
		{"rate and Reshape", func() {
			mcs, _ := dot11.HTMCS(4)
			sys.Spec.MCS = mcs
			if err := sys.Reshape(); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload edited in place", func() { sys.Spec.PayloadSizes[5] += 4 }},
		{"cipher and Reshape", func() {
			if err := sys.SetCipher(ccmp); err != nil {
				t.Fatal(err)
			}
		}},
		{"unshaped", func() { sys.Spec.PayloadSizes, sys.Spec.TicksPerSubframe = nil, 0 }},
		{"fewer data subframes", func() { sys.Spec.DataLen = 24 }},
	}
	rng := stats.NewRNG(4)
	round := func() {
		t.Helper()
		env.Advance(0.05)
		if _, err := sys.QueryRound(stats.RandomBits(rng, sys.Spec.DataLen)); err != nil {
			t.Fatal(err)
		}
	}
	psduLen := func() int {
		t.Helper()
		n, err := sys.Spec.psduLen(sys.cipherOverhead())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	round()
	for _, c := range changes {
		before := psduLen()
		c.change()
		round()
		checkPlan(t, c.name, &sys.plan, sys.Spec, sys.Cipher)
		after := psduLen()
		if after == before {
			t.Fatalf("%s: PSDU length stayed %d bytes", c.name, before)
		}
		rate, err := sys.TagRateBps()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := dot11.QueryRoundAirtime(after, sys.Spec.MCS, sys.Spec.Width, sys.Spec.GI, sys.BARateMbps)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(sys.Spec.DataLen) / ex.Total().Seconds(); rate != want {
			t.Fatalf("%s: TagRateBps %v, want %v", c.name, rate, want)
		}
	}
}

// TestQueryRoundResultsOwnTheirBits checks results never alias the
// System's per-round scratch: a later round must not rewrite an earlier
// result.
func TestQueryRoundResultsOwnTheirBits(t *testing.T) {
	sys, env := testbed(t, 1, 33)
	rng := stats.NewRNG(5)
	env.Advance(0.05)
	first, err := sys.QueryRound(stats.RandomBits(rng, sys.Spec.DataLen))
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := slices.Clone(first.TxBits), slices.Clone(first.RxBits)
	for i := 0; i < 5; i++ {
		env.Advance(0.05)
		if _, err := sys.QueryRound(stats.RandomBits(rng, sys.Spec.DataLen)); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(first.TxBits, tx) || !slices.Equal(first.RxBits, rx) {
		t.Fatal("a later round rewrote an earlier round's bits")
	}
}

// TestQueryRoundIntoMatchesQueryRound drives one reused result through
// QueryRoundInto and fresh QueryRound calls on a twin system over 500
// rounds of a bursty, trafficked world, and requires every field, the
// fault tally, the counters and the trace to agree: reusing the result
// moves no draw. The reused result starts with slices too short for a
// round and stale fields, every third round sends fewer bits than DataLen
// (padded with idle 1s), and a lost block ACK must leave RxBits empty
// and the next delivered round must fill it again from the same storage.
func TestQueryRoundIntoMatchesQueryRound(t *testing.T) {
	type twin struct {
		sys *System
		env *channel.Environment
		o   *obs.Observer
	}
	var twins [2]twin
	for i := range twins {
		sys, env, err := linkWorld(1, 77)()
		if err != nil {
			t.Fatal(err)
		}
		o := obs.NewObserver(nil, obs.NewRecorder(1<<12))
		sys.Instrument(o, 1, "into")
		twins[i] = twin{sys, env, o}
	}
	reused := RoundResult{TxBits: []byte{0, 0, 0}, RxBits: make([]byte, 1, 2), BitErrors: 99, BALost: true, SNRDb: -1}
	var txData, rxData *byte
	lost, refilled, prevLost := 0, 0, false
	dataLen := twins[0].sys.Spec.DataLen
	bitsRNG := stats.NewRNG(78)
	for r := range 500 {
		n := dataLen
		if r%3 == 1 {
			n = bitsRNG.Intn(n) // a short round, padded with idle 1s
		}
		bits := stats.RandomBits(bitsRNG, n)
		for _, tw := range twins {
			tw.env.Advance(channel.RoundStepS)
		}
		if err := twins[0].sys.QueryRoundInto(bits, &reused); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		fresh, err := twins[1].sys.QueryRound(bits)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		got, want := reused, *fresh
		if !slices.Equal(got.TxBits, want.TxBits) || !slices.Equal(got.RxBits, want.RxBits) {
			t.Fatalf("round %d: QueryRoundInto bits %v → %v, QueryRound %v → %v", r, got.TxBits, got.RxBits, want.TxBits, want.RxBits)
		}
		got.TxBits, got.RxBits, want.TxBits, want.RxBits = nil, nil, nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: QueryRoundInto gave %+v, QueryRound %+v", r, got, want)
		}
		switch {
		case got.BALost:
			lost++
			if len(reused.RxBits) != 0 {
				t.Fatalf("round %d: a lost block ACK left %d received bits", r, len(reused.RxBits))
			}
		case len(reused.RxBits) != dataLen:
			t.Fatalf("round %d: %d received bits, want %d", r, len(reused.RxBits), dataLen)
		case prevLost:
			refilled++
		}
		prevLost = got.BALost
		// Past the first round the result's storage is the first round's.
		if txData == nil {
			txData = &reused.TxBits[0]
		} else if &reused.TxBits[0] != txData {
			t.Fatalf("round %d: TxBits moved to new storage", r)
		}
		if cap(reused.RxBits) >= dataLen {
			if rxData == nil {
				rxData = &reused.RxBits[:1][0]
			} else if &reused.RxBits[:1][0] != rxData {
				t.Fatalf("round %d: RxBits moved to new storage", r)
			}
		}
	}
	if lost == 0 || refilled == 0 {
		t.Fatalf("%d lost block ACKs, %d followed by a delivered round; the world must lose some", lost, refilled)
	}
	a, b := twins[0], twins[1]
	if a.sys.Injected != b.sys.Injected {
		t.Fatalf("fault tally %+v, QueryRound's %+v", a.sys.Injected, b.sys.Injected)
	}
	sa, sb := a.o.Registry.Snapshot().Deterministic(), b.o.Registry.Snapshot().Deterministic()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("metrics %+v, QueryRound's %+v", sa, sb)
	}
	if !reflect.DeepEqual(a.o.Trace.Events(), b.o.Trace.Events()) {
		t.Fatal("trace events differ from QueryRound's")
	}
}

// TestWorkCounters pins the hot path's work per round: two decode-model
// evaluations, no query bytes marshalled, phasors for the static prefix
// and the two tag states only on the first round, and one success
// probability per distinct (BER, bits) pair of a round rather than one per
// subframe segment.
func TestWorkCounters(t *testing.T) {
	sys, env := testbed(t, 2, 34)
	o := obs.NewObserver(nil, nil)
	sys.Obs = o
	const rounds = 12
	rng := stats.NewRNG(6)
	for r := 0; r < rounds; r++ {
		env.Advance(0.05)
		if _, err := sys.QueryRound(stats.RandomBits(rng, sys.Spec.DataLen)); err != nil {
			t.Fatal(err)
		}
	}
	m := o.Core
	if got := m.DecodeModelEvals.Value(); got != 2*rounds {
		t.Fatalf("decode model evaluated %d times over %d rounds, want %d", got, rounds, 2*rounds)
	}
	// Five distinct (BER, bits) pairs per round in this world, against one
	// or two lookups for each of the round's 64 subframes.
	if got := m.SuccessProbEvals.Value(); got != 5*rounds {
		t.Fatalf("%d success-probability evaluations over %d rounds, want %d", got, rounds, 5*rounds)
	}
	if got := m.QueryBytesBuilt.Value(); got != 0 {
		t.Fatalf("%d query bytes marshalled, want 0", got)
	}
	n := int64(env.NumSubcarriers)
	once, perRound := int64(1+len(env.Reflectors)+2)*n, int64(len(env.Scatterers))*n
	if got, want := m.ChannelPathEvals.Value(), once+rounds*perRound; got != want {
		t.Fatalf("%d path × subcarrier phasors over %d rounds, want %d", got, rounds, want)
	}
}
