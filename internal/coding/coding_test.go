package coding

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/fault"
	"witag/internal/link/linktest"
	"witag/internal/stats"
)

// --- GF(256) closed forms -------------------------------------------------

func TestGFClosedForms(t *testing.T) {
	// 2·0x80 wraps: 0x100 ⊕ 0x11D = 0x1D under the RS-standard polynomial.
	if got := gfMul(2, 0x80); got != 0x1D {
		t.Fatalf("2·0x80 = %#x, want 0x1D", got)
	}
	// The generator has full order: 2^255 = 2^0 = 1.
	if gfExp(0) != 1 || gfExp(255) != 1 || gfExp(1) != 2 {
		t.Fatalf("generator powers wrong: 2^0=%d 2^255=%d 2^1=%d", gfExp(0), gfExp(255), gfExp(1))
	}
	// Addition is XOR and self-inverse.
	if gfAdd(0x57, 0x83) != 0xD4 || gfAdd(0x57, 0x57) != 0 {
		t.Fatal("GF addition is not XOR")
	}
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a·a⁻¹ = %d for a=%d", got, a)
		}
		if gfMul(byte(a), 0) != 0 || gfMul(0, byte(a)) != 0 {
			t.Fatal("multiplication by zero not zero")
		}
		if gfDiv(gfMul(byte(a), 0x2B), 0x2B) != byte(a) {
			t.Fatalf("div does not invert mul at a=%d", a)
		}
	}
	// Distributivity on a sample grid.
	for a := 0; a < 256; a += 17 {
		for b := 0; b < 256; b += 13 {
			for c := 0; c < 256; c += 29 {
				lhs := gfMul(byte(a), gfAdd(byte(b), byte(c)))
				rhs := gfAdd(gfMul(byte(a), byte(b)), gfMul(byte(a), byte(c)))
				if lhs != rhs {
					t.Fatalf("a(b+c) ≠ ab+ac at %d,%d,%d", a, b, c)
				}
			}
		}
	}
	if !t.Run("div-by-zero-panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("gfDiv(x, 0) did not panic")
			}
		}()
		gfDiv(7, 0)
	}) {
		t.Fail()
	}
}

func TestGFMatrixInverse(t *testing.T) {
	m := [][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}}
	orig := make([][]byte, len(m))
	for i := range m {
		orig[i] = append([]byte(nil), m[i]...)
	}
	if err := gfInvertMatrix(m); err != nil {
		t.Fatal(err)
	}
	// orig · inv = I, via gfMatMul with identity columns.
	id := [][]byte{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	prod := [][]byte{make([]byte, 3), make([]byte, 3), make([]byte, 3)}
	tmp := [][]byte{make([]byte, 3), make([]byte, 3), make([]byte, 3)}
	gfMatMul(tmp, id, m)      // tmp = inv
	gfMatMul(prod, tmp, orig) // prod = orig · inv
	if !reflect.DeepEqual(prod, id) {
		t.Fatalf("M·M⁻¹ = %v, want identity", prod)
	}
	// Singular matrices are reported, not looped over.
	sing := [][]byte{{1, 2}, {1, 2}}
	if err := gfInvertMatrix(sing); err == nil {
		t.Fatal("singular matrix inverted")
	}
}

// --- Robust soliton closed forms ------------------------------------------

// TestRobustSolitonClosedForm re-derives Luby's formulas independently and
// pins the implementation to them.
func TestRobustSolitonClosedForm(t *testing.T) {
	const k, c, delta = 32, 0.2, 0.05
	p, err := RobustSoliton(k, c, delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != k+1 {
		t.Fatalf("len = %d, want %d", len(p), k+1)
	}
	r := c * math.Log(float64(k)/delta) * math.Sqrt(float64(k))
	spike := int(math.Round(float64(k) / r))
	raw := make([]float64, k+1)
	raw[1] = 1/float64(k) + r/float64(k) // rho(1) + tau(1)
	for d := 2; d <= k; d++ {
		raw[d] = 1 / (float64(d) * float64(d-1))
		if d < spike {
			raw[d] += r / (float64(d) * float64(k))
		}
	}
	raw[spike] += r * math.Log(r/delta) / float64(k)
	beta := 0.0
	for _, v := range raw {
		beta += v
	}
	sum := 0.0
	for d := 1; d <= k; d++ {
		if want := raw[d] / beta; math.Abs(p[d]-want) > 1e-12 {
			t.Fatalf("p[%d] = %g, want %g", d, p[d], want)
		}
		sum += p[d]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution sums to %g", sum)
	}
	// The spike must dominate its ideal-soliton neighborhood.
	if spike >= 2 && p[spike] <= p[spike+1] {
		t.Fatalf("no spike at d=%d: p=%g vs p[%d]=%g", spike, p[spike], spike+1, p[spike+1])
	}
	// Invalid parameters are rejected.
	for _, bad := range [][3]float64{{0, c, delta}, {k, 0, delta}, {k, c, 0}, {k, c, 1}} {
		if _, err := RobustSoliton(int(bad[0]), bad[1], bad[2]); err == nil {
			t.Fatalf("accepted k=%v c=%v delta=%v", bad[0], bad[1], bad[2])
		}
	}
}

// --- RS block code --------------------------------------------------------

func TestRSSystematicAndRecovery(t *testing.T) {
	const k, m, size = 8, 4, 16
	rs, err := NewRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)
	data := make([][]byte, k)
	for i := range data {
		data[i] = stats.RandomBytes(rng, size)
	}
	parity, err := rs.Parity(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != m {
		t.Fatalf("%d parity shards, want %d", len(parity), m)
	}
	// Drop every m-subset pattern worth checking: all-data, all-parity,
	// mixed, and single-shard erasures.
	patterns := [][]int{{0, 1, 2, 3}, {8, 9, 10, 11}, {0, 5, 9, 11}, {7}, {}}
	for _, drop := range patterns {
		shards := make([][]byte, k+m)
		for i := range data {
			shards[i] = append([]byte(nil), data[i]...)
		}
		for i := range parity {
			shards[k+i] = append([]byte(nil), parity[i]...)
		}
		for _, d := range drop {
			shards[d] = nil
		}
		if err := rs.Reconstruct(shards); err != nil {
			t.Fatalf("drop %v: %v", drop, err)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(shards[i], data[i]) {
				t.Fatalf("drop %v: data shard %d wrong", drop, i)
			}
		}
	}
	// m+1 erasures must fail loudly.
	shards := make([][]byte, k+m)
	for i := range data {
		shards[i] = data[i]
	}
	for i := range parity {
		shards[k+i] = parity[i]
	}
	for _, d := range []int{0, 1, 2, 3, 4} {
		shards[d] = nil
	}
	if err := rs.Reconstruct(shards); err == nil {
		t.Fatal("reconstructed from fewer than k shards")
	}
	// Geometry validation.
	if _, err := NewRS(0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewRS(200, 100); err == nil {
		t.Fatal("k+m > 255 accepted")
	}
	if err := rs.Reconstruct(make([][]byte, 3)); err == nil {
		t.Fatal("wrong shard count accepted")
	}
}

// --- Fountain code --------------------------------------------------------

func TestFountainRoundTrip(t *testing.T) {
	rng := stats.NewRNG(21)
	for _, n := range []int{1, 11, 96, 257} {
		payload := stats.RandomBytes(rng, n)
		f, err := NewFountain(len(payload), 12, stats.SubSeed(21, "lt-test"))
		if err != nil {
			t.Fatal(err)
		}
		dec := NewFountainDecoder(f)
		sent := 0
		for id := 0; !dec.Done() && id < 40*f.K+100; id++ {
			sym, err := f.Symbol(payload, id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dec.Add(id, sym); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if !dec.Done() {
			t.Fatalf("n=%d: not decoded after %d symbols", n, sent)
		}
		got, err := dec.Payload()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: payload mismatch", n)
		}
		// Rateless overhead should be modest on a lossless feed.
		if sent > 3*f.K+20 {
			t.Fatalf("n=%d: %d symbols for K=%d blocks — degree distribution broken?", n, sent, f.K)
		}
	}
}

func TestFountainSymbolBlocksDeterministic(t *testing.T) {
	a, err := NewFountain(100, 10, stats.SubSeed(7, "lt"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewFountain(100, 10, stats.SubSeed(7, "lt"))
	c, _ := NewFountain(100, 10, stats.SubSeed(8, "lt"))
	same, diff := 0, 0
	for id := 0; id < 64; id++ {
		if !reflect.DeepEqual(a.SymbolBlocks(id), b.SymbolBlocks(id)) {
			t.Fatalf("symbol %d differs across equal seeds", id)
		}
		if reflect.DeepEqual(a.SymbolBlocks(id), c.SymbolBlocks(id)) {
			same++
		} else {
			diff++
		}
		for _, bi := range a.SymbolBlocks(id) {
			if bi < 0 || bi >= a.K {
				t.Fatalf("symbol %d references block %d outside [0,%d)", id, bi, a.K)
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical symbol streams")
	}
}

// referenceSymbolBlocks is SymbolBlocks as it was before the shuffle
// scratch: an fmt label and a fresh K-long index slice per symbol.
func referenceSymbolBlocks(f *Fountain, id int) []int {
	rng := stats.NewRNG(stats.SubSeed(f.seed, "lt", fmt.Sprintf("sym=%d", id)))
	u := rng.Float64()
	deg := 1
	for d := 1; d < len(f.cdf); d++ {
		if u <= f.cdf[d] {
			deg = d
			break
		}
		deg = d
	}
	if deg > f.K {
		deg = f.K
	}
	idx := make([]int, f.K)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < deg; i++ {
		j := i + rng.Intn(f.K-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:deg]
}

// TestSymbolBlocksMatchReference pins the block sets of symbols 0..511
// on fountains from one block to many, calling them interleaved so each
// fountain's scratch is reused across ids, and checks that a returned
// set is the caller's: later calls do not rewrite it.
func TestSymbolBlocksMatchReference(t *testing.T) {
	var fountains []*Fountain
	for _, geom := range []struct{ payload, block int }{{1, 1}, {7, 4}, {48, 4}, {100, 10}, {256, 3}} {
		for _, seed := range []int64{0, -9, stats.SubSeed(42, "sym")} {
			f, err := NewFountain(geom.payload, geom.block, seed)
			if err != nil {
				t.Fatal(err)
			}
			fountains = append(fountains, f)
		}
	}
	for id := 0; id < 512; id++ {
		for _, f := range fountains {
			got := f.SymbolBlocks(id)
			want := referenceSymbolBlocks(f, id)
			held := slices.Clone(got)
			if !slices.Equal(got, want) {
				t.Fatalf("K=%d seed %d symbol %d: blocks %v, reference %v", f.K, f.seed, id, got, want)
			}
			f.SymbolBlocks(id + 1)
			if !slices.Equal(got, held) {
				t.Fatalf("K=%d seed %d symbol %d: the next call rewrote the returned set to %v", f.K, f.seed, id, got)
			}
		}
	}
}

func TestFountainDecoderRejectsGarbage(t *testing.T) {
	f, err := NewFountain(60, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewFountainDecoder(f)
	if _, err := dec.Add(-1, make([]byte, 10)); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := dec.Add(0, make([]byte, 9)); err == nil {
		t.Fatal("short symbol accepted")
	}
	sym, _ := f.Symbol(make([]byte, 60), 0)
	if fresh, err := dec.Add(0, sym); err != nil || !fresh {
		t.Fatalf("first add fresh=%v err=%v", fresh, err)
	}
	if fresh, err := dec.Add(0, sym); err != nil || fresh {
		t.Fatalf("duplicate add fresh=%v err=%v", fresh, err)
	}
	if _, err := dec.Payload(); err == nil {
		t.Fatal("incomplete decode delivered a payload")
	}
}

// --- Transfer modes over a real System ------------------------------------

// codingTestbed mirrors link's testbed: LoS room, tag 1 m from the client.
func codingTestbed(t *testing.T, seed int64) (*core.System, *channel.Environment) {
	t.Helper()
	env := channel.NewEnvironment(seed)
	env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
	env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
	env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
	sys, err := core.NewSystem(env,
		channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
		channel.Point{X: 1, Y: 0.3}, 68, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sys, env
}

func TestFountainTransferCleanChannel(t *testing.T) {
	sys, env := codingTestbed(t, 31)
	tr := NewFountainTransferer(sys, env, DefaultFountainConfig(), stats.SubSeed(31, "fountain"))
	payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(31, "payload")), 96)
	st, err := tr.Send(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Delivered || !bytes.Equal(st.Received, payload) {
		t.Fatalf("fountain transfer failed on a clean channel: %+v", st)
	}
	if st.GoodputBps() <= 0 || st.DecodeAttempts == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
}

func TestRSTransferCleanChannel(t *testing.T) {
	sys, env := codingTestbed(t, 32)
	tr := NewRSTransferer(sys, env, DefaultRSConfig(), stats.SubSeed(32, "rs"))
	payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(32, "payload")), 96)
	st, err := tr.Send(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Delivered || !bytes.Equal(st.Received, payload) {
		t.Fatalf("RS transfer failed on a clean channel: %+v", st)
	}
	if st.FinalK == 0 || st.FinalN <= st.FinalK {
		t.Fatalf("no parity geometry recorded: %+v", st)
	}
}

func TestCodedTransfersSurviveBurstFaults(t *testing.T) {
	p, err := fault.Named("bursty")
	if err != nil {
		t.Fatal(err)
	}
	p.LossBad = 0.9
	payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(33, "payload")), 96)
	run := func(name string, send func(sys *core.System, env *channel.Environment) (*Stats, error)) {
		sys, env := codingTestbed(t, 33)
		sys.Faults, err = fault.NewInjector(p, stats.SubSeed(33, "fault"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := send(sys, env)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Delivered || !bytes.Equal(st.Received, payload) {
			t.Fatalf("%s transfer failed under burst faults: %+v", name, st)
		}
		if st.FrameErasures+st.FrameErrors == 0 {
			t.Fatalf("%s: burst profile caused zero frame losses — injector inert?", name)
		}
	}
	run("fountain", func(sys *core.System, env *channel.Environment) (*Stats, error) {
		return NewFountainTransferer(sys, env, DefaultFountainConfig(), stats.SubSeed(33, "fountain")).Send(context.Background(), payload)
	})
	run("rs", func(sys *core.System, env *channel.Environment) (*Stats, error) {
		return NewRSTransferer(sys, env, DefaultRSConfig(), stats.SubSeed(33, "rs")).Send(context.Background(), payload)
	})
}

func TestCodedTransfersHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	payload := stats.RandomBytes(stats.NewRNG(1), 64)
	sys, env := codingTestbed(t, 34)
	if _, err := NewFountainTransferer(sys, env, DefaultFountainConfig(), 1).Send(ctx, payload); err != context.Canceled {
		t.Fatalf("fountain: err = %v, want context.Canceled", err)
	}
	if _, err := NewRSTransferer(sys, env, DefaultRSConfig(), 1).Send(ctx, payload); err != context.Canceled {
		t.Fatalf("rs: err = %v, want context.Canceled", err)
	}
	// Cancelled mid-frame: two Err calls pass (the per-frame check plus
	// the first round), then the context reads as cancelled while the
	// first 5-round frame (288 coded bits over DataLen 60) still has rounds
	// to go. The transfer must stop inside the frame, not finish it.
	for name, send := range map[string]func(sys *core.System, env *channel.Environment, ctx context.Context) (*Stats, error){
		"fountain": func(sys *core.System, env *channel.Environment, ctx context.Context) (*Stats, error) {
			return NewFountainTransferer(sys, env, DefaultFountainConfig(), 1).Send(ctx, payload)
		},
		"rs": func(sys *core.System, env *channel.Environment, ctx context.Context) (*Stats, error) {
			return NewRSTransferer(sys, env, DefaultRSConfig(), 1).Send(ctx, payload)
		},
	} {
		sys, env := codingTestbed(t, 34)
		st, err := send(sys, env, &linktest.RoundLimitedCtx{Context: context.Background(), Calls: 2})
		if err != context.Canceled {
			t.Fatalf("%s mid-frame: err = %v, want context.Canceled", name, err)
		}
		if st.Delivered || st.Rounds != 1 {
			t.Fatalf("%s mid-frame: delivered=%v after %d rounds, want exactly 1 undelivered round", name, st.Delivered, st.Rounds)
		}
	}
}

func TestLossWindowSlides(t *testing.T) {
	w := newLossWindow(8)
	if got := w.Rate(0.25); got != 0.25 {
		t.Fatalf("empty window rate %v, want the prior", got)
	}
	for i := 0; i < 8; i++ {
		w.Observe(i%2 == 0) // 4 losses in 8
	}
	if got := w.Rate(0); got != 0.5 {
		t.Fatalf("rate = %v, want 0.5", got)
	}
	for i := 0; i < 8; i++ {
		w.Observe(false)
	}
	if got := w.Rate(0); got != 0 {
		t.Fatalf("rate after clean window = %v, want 0 (old verdicts must age out)", got)
	}
}

// BenchmarkSymbolBlocks draws block sets at the coding sweep's LT
// geometry: a 96-byte payload in the default 12-byte blocks.
func BenchmarkSymbolBlocks(b *testing.B) {
	f, err := NewFountain(96, DefaultFountainConfig().BlockBytes, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.SymbolBlocks(i & 1023)
	}
}
