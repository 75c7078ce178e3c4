package core

import (
	"slices"
	"testing"
	"time"

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

// checkPlan compares a plan with the query actually built and marshalled
// through a scheduler carrying cipher.
func checkPlan(t *testing.T, what string, p *queryPlan, spec QuerySpec, cipher crypto80211.Cipher) {
	t.Helper()
	overhead := 0
	if cipher != nil {
		overhead = cipher.Overhead()
	}
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
	if p.psduLen != len(psdu) {
		t.Fatalf("%s: planned PSDU %d bytes, built %d", what, p.psduLen, len(psdu))
	}
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
		overhead := 0
		if cipher != nil {
			overhead = cipher.Overhead()
		}
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
			sys.Cipher, sys.Scheduler.Cipher = ccmp, ccmp
			if err := sys.Reshape(); err != nil {
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
	round()
	for _, c := range changes {
		before := sys.plan.psduLen
		c.change()
		round()
		checkPlan(t, c.name, &sys.plan, sys.Spec, sys.Cipher)
		if sys.plan.psduLen == before {
			t.Fatalf("%s: PSDU length stayed %d bytes", c.name, before)
		}
		rate, err := sys.TagRateBps()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := dot11.QueryRoundAirtime(sys.plan.psduLen, sys.Spec.MCS, sys.Spec.Width, sys.Spec.GI, sys.BARateMbps)
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
