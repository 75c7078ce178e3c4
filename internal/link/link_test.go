package link

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/fault"
	"witag/internal/link/linktest"
	"witag/internal/stats"
)

func TestSplitRanges(t *testing.T) {
	segs := splitRange(nil, segment{0, 64}, 24)
	want := []segment{{0, 24}, {24, 48}, {48, 64}}
	if !reflect.DeepEqual(segs, want) {
		t.Fatalf("split = %v", segs)
	}
	// Re-splitting a pending range preserves its offsets.
	segs = splitRange(nil, segment{24, 48}, 8)
	want = []segment{{24, 32}, {32, 40}, {40, 48}}
	if !reflect.DeepEqual(segs, want) {
		t.Fatalf("re-split = %v", segs)
	}
	// Degenerate chunk sizes clamp rather than loop forever.
	if got := splitRange(nil, segment{0, 3}, 0); len(got) != 3 {
		t.Fatalf("chunk 0 → %v", got)
	}
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	payload := stats.RandomBytes(stats.NewRNG(1), 300)
	fp := buildFrame(NewFrameSender(nil, nil, nil), payload, segment{256, 300})
	off, total, chunk, err := parseFrame(fp)
	if err != nil {
		t.Fatal(err)
	}
	if off != 256 || total != 300 || !bytes.Equal(chunk, payload[256:300]) {
		t.Fatalf("parsed off=%d total=%d len=%d", off, total, len(chunk))
	}
	if _, _, _, err := parseFrame([]byte{0, 1}); err == nil {
		t.Fatal("short frame payload accepted")
	}
	// Header promising a chunk past the transfer end must be rejected.
	bad := buildFrame(NewFrameSender(nil, nil, nil), payload, segment{256, 300})
	bad[2], bad[3] = 0, 10 // total = 10 < off
	if _, _, _, err := parseFrame(bad); err == nil {
		t.Fatal("overrunning chunk accepted")
	}
}

func TestReassembler(t *testing.T) {
	payload := stats.RandomBytes(stats.NewRNG(2), 50)
	r := &Reassembler{}
	if r.Missing() != -1 {
		t.Fatal("length known before any frame")
	}
	if _, err := r.Payload(); err == nil {
		t.Fatal("empty reassembly delivered")
	}
	// Out of order, with a duplicate.
	for _, seg := range []segment{{30, 50}, {0, 10}, {30, 50}, {10, 30}} {
		if err := r.Add(seg.start, 50, payload[seg.start:seg.end]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Payload()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembly mismatch")
	}
	if err := r.Add(0, 49, payload[:10]); err == nil {
		t.Fatal("conflicting transfer length accepted")
	}
	if err := r.Add(45, 50, payload[40:]); err == nil {
		t.Fatal("chunk past transfer end accepted")
	}
}

func TestCodingControllerEscalatesAndRelaxes(t *testing.T) {
	cc, err := NewCodingController(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCodingController(99); err == nil {
		t.Fatal("out-of-ladder start accepted")
	}
	// Failures escalate one rung at a time, to the top and no further.
	for i := 0; i < 100; i++ {
		cc.Observe(false)
	}
	if cc.Index() != len(cc.Ladder)-1 {
		t.Fatalf("after sustained failure at rung %d, want top", cc.Index())
	}
	top := cc.Level()
	if !top.Codec.FEC || top.Codec.InterleaveDepth < 16 || top.SegBytes >= DefaultLadder()[0].SegBytes {
		t.Fatalf("top rung not the heaviest protection: %+v", top)
	}
	// Sustained success relaxes all the way back down — additively, so it
	// takes at least RelaxAfter frames per rung.
	steps := 0
	for cc.Index() > 0 && steps < 10_000 {
		cc.Observe(true)
		steps++
	}
	if cc.Index() != 0 {
		t.Fatal("sustained success never relaxed to rung 0")
	}
	if steps < cc.RelaxAfter*(len(cc.Ladder)-1) {
		t.Fatalf("relaxed in %d frames — faster than one rung per %d clean frames", steps, cc.RelaxAfter)
	}
}

func TestFixedControllerNeverMoves(t *testing.T) {
	cc := NewFixedController(Level{Codec: core.Codec{FEC: true}, SegBytes: 32})
	for i := 0; i < 50; i++ {
		cc.Observe(i%2 == 0)
	}
	if cc.Index() != 0 || !cc.Level().Codec.FEC {
		t.Fatal("fixed controller moved")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	var prev time.Duration
	for n := 1; n <= 6; n++ {
		d := backoffWait(n, 0.5)
		if d < prev {
			t.Fatalf("backoff shrank at n=%d: %v < %v", n, d, prev)
		}
		if d > backoffCap {
			t.Fatalf("backoff %v exceeds cap", d)
		}
		prev = d
	}
	if d := backoffWait(6, 0.5); d != backoffCap {
		t.Fatalf("deep backoff %v, want the cap", d)
	}
	// Jitter draws from the labeled RNG only, so it reproduces, and it
	// stays within ±backoffJitter of the nominal wait.
	a := NewFrameSender(nil, nil, stats.NewRNG(stats.SubSeed(1, "arq")))
	b := NewFrameSender(nil, nil, stats.NewRNG(stats.SubSeed(1, "arq")))
	var sa, sb TransferStats
	for n := 1; n < 8; n++ {
		d := a.Backoff(&sa)
		if d != b.Backoff(&sb) {
			t.Fatal("jittered backoff not reproducible from its seed")
		}
		nominal := float64(backoffWait(n, 0.5))
		if f := float64(d); f < nominal*(1-backoffJitter) || f > nominal*(1+backoffJitter) {
			t.Fatalf("jittered backoff %v at n=%d outside ±%v of %v", d, n, backoffJitter, time.Duration(nominal))
		}
	}
	if sa.BackoffWait != sa.Airtime || sa.BackoffWait <= 0 {
		t.Fatalf("backoff not charged as airtime: %+v", sa)
	}
}

// linkTestbed builds the LoS room with the tag 1 m from the client.
func linkTestbed(t *testing.T, seed int64) (*core.System, *channel.Environment) {
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

func TestTransferCleanChannel(t *testing.T) {
	sys, env := linkTestbed(t, 5)
	cc, _ := NewCodingController(0)
	tr := NewTransferer(sys, env, DefaultPolicy(), cc, stats.SubSeed(5, "arq"))
	payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(5, "payload")), 64)
	st, err := tr.Send(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Delivered {
		t.Fatalf("clean-channel transfer failed: %+v", st)
	}
	if !bytes.Equal(st.Received, payload) {
		t.Fatal("delivered payload differs")
	}
	if st.GoodputBps() <= 0 {
		t.Fatal("no goodput accounted")
	}
	if st.Rounds < 2 {
		t.Fatalf("64-byte payload needed %d rounds — segmentation broken?", st.Rounds)
	}
}

func TestTransferDeliversUnderBurstFaults(t *testing.T) {
	p, err := fault.Named("bursty")
	if err != nil {
		t.Fatal(err)
	}
	p.LossBad = 0.9
	sys, env := linkTestbed(t, 9)
	sys.Faults, err = fault.NewInjector(p, stats.SubSeed(9, "fault"))
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := NewCodingController(0)
	tr := NewTransferer(sys, env, DefaultPolicy(), cc, stats.SubSeed(9, "arq"))
	payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(9, "payload")), 64)
	st, err := tr.Send(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Delivered {
		t.Fatalf("ARQ transfer failed under faults: %+v", st)
	}
	if !bytes.Equal(st.Received, payload) {
		t.Fatal("ARQ delivered a wrong payload — the CRC layer must make this impossible")
	}
	if st.Retries == 0 {
		t.Fatal("burst faults produced zero retries — injector inert?")
	}
	if st.FinalLevel == 0 && st.ResidualErrors > 0 {
		t.Fatalf("frame errors observed (%d) but the controller never escalated", st.ResidualErrors)
	}
}

func TestNoARQBaselineFailsWhereARQSucceeds(t *testing.T) {
	p, err := fault.Named("bursty")
	if err != nil {
		t.Fatal(err)
	}
	p.LossBad = 0.9
	payload := stats.RandomBits(stats.NewRNG(stats.SubSeed(3, "payload")), 64)
	run := func(budget int) *Stats {
		sys, env := linkTestbed(t, 3)
		var ferr error
		sys.Faults, ferr = fault.NewInjector(p, stats.SubSeed(3, "fault"))
		if ferr != nil {
			t.Fatal(ferr)
		}
		var cc *CodingController
		if budget == 0 {
			cc = NewFixedController(DefaultLadder()[1])
		} else {
			cc, _ = NewCodingController(0)
		}
		pol := DefaultPolicy()
		pol.RetryBudget = budget
		st, err := NewTransferer(sys, env, pol, cc, stats.SubSeed(3, "arq")).Send(context.Background(), payload)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := run(0); st.Delivered {
		t.Skip("baseline survived this seed; the robustness experiment asserts the aggregate claim")
	}
	if st := run(96); !st.Delivered {
		t.Fatalf("ARQ failed where the paired baseline failed too: %+v", st)
	}
}

func TestTransferDeterministicFromSeeds(t *testing.T) {
	p, err := fault.Named("harsh")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Stats {
		sys, env := linkTestbed(t, 17)
		var ferr error
		sys.Faults, ferr = fault.NewInjector(p, stats.SubSeed(17, "fault"))
		if ferr != nil {
			t.Fatal(ferr)
		}
		cc, _ := NewCodingController(0)
		tr := NewTransferer(sys, env, DefaultPolicy(), cc, stats.SubSeed(17, "arq"))
		st, err := tr.Send(context.Background(), stats.RandomBytes(stats.NewRNG(stats.SubSeed(17, "payload")), 48))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seeds, different transfers:\n%+v\n%+v", a, b)
	}
}

func TestSendValidation(t *testing.T) {
	sys, env := linkTestbed(t, 5)
	cc, _ := NewCodingController(0)
	tr := NewTransferer(sys, env, DefaultPolicy(), cc, 1)
	if _, err := tr.Send(context.Background(), nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := tr.Send(context.Background(), make([]byte, MaxTransfer+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Send(ctx, []byte{1}); err == nil {
		t.Fatal("cancelled context ignored")
	}
}

func TestSendCancelsMidFrame(t *testing.T) {
	sys, env := linkTestbed(t, 6)
	cc, _ := NewCodingController(0)
	tr := NewTransferer(sys, env, DefaultPolicy(), cc, 1)
	// Two Err calls pass (the outer-loop check plus the first round), then
	// the context reads as cancelled while the first frame still has rounds
	// to go. Send must stop inside the frame, not finish it.
	ctx := &linktest.RoundLimitedCtx{Context: context.Background(), Calls: 2}
	payload := make([]byte, 64)
	st, err := tr.Send(ctx, payload)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Delivered {
		t.Fatal("cancelled transfer reported delivered")
	}
	if st.Rounds != 1 {
		t.Fatalf("sent %d rounds after cancellation mid-frame, want exactly 1", st.Rounds)
	}
}

// TestFrameSenderSendAllocs pins what a frame costs once the sender's
// storage has grown: every Send after the first on one sender allocates
// nothing — not to encode or decode the frame, not per query round and
// not to collect the received bits.
func TestFrameSenderSendAllocs(t *testing.T) {
	sys, _ := linkTestbed(t, 5)
	f := NewFrameSender(sys, nil, stats.NewRNG(1))
	codec := core.Codec{FEC: true, InterleaveDepth: 8}
	fp := stats.RandomBytes(stats.NewRNG(2), 30)
	bits, err := codec.Encode(fp)
	if err != nil {
		t.Fatal(err)
	}
	rounds := (len(bits) + sys.Spec.DataLen - 1) / sys.Spec.DataLen
	var st TransferStats
	send := func() {
		fr, err := f.Send(context.Background(), codec, f.Payload(fp[:2], fp[2:]), &st)
		if err != nil {
			t.Fatal(err)
		}
		// A frame decoded clean or lost to residual errors allocates
		// alike; an erasure or a framing error would not.
		if fr.Erased || core.DesyncError(fr.DecodeErr) || fr.DecodeErr == nil && !bytes.Equal(fr.Payload, fp) {
			t.Fatalf("frame lost: %+v", fr)
		}
	}
	send()
	if want, allocs := 0.0, testing.AllocsPerRun(10, send); allocs != want {
		t.Fatalf("Send allocates %v times per %d-round frame, want %v", allocs, rounds, want)
	}
}

// TestTransfererReleaseStartsCold: an ARQ transferer built on the storage
// a released one emptied — its frame storage, its ranges and reassembler,
// and its adaptive controller, all grown and written by a longer transfer
// over a more hostile world that climbed the ladder — must give every stat
// and the received bytes a transferer on fresh storage gives, and a
// controller on a released one's storage must start as a fresh one does.
// The fresh run is not released, so no warm run inherits its storage.
// The pools hand released storage back most of the time, not always, so
// the warm run repeats until it has run on all of the dirty storage, and
// the test fails if that never happens.
func TestTransfererReleaseStartsCold(t *testing.T) {
	type storage struct {
		frames *frameStorage
		arq    *arqStorage
		cc     *CodingController
	}
	freshCC := CodingController{Ladder: DefaultLadder(), Alpha: 0.3, EscalateFER: 0.35, RelaxFER: 0.05, RelaxAfter: 8, reusable: true}
	run := func(seed int64, lossBad float64, n int, fresh bool) (string, storage) {
		p, err := fault.Named("bursty")
		if err != nil {
			t.Fatal(err)
		}
		p.LossBad = lossBad
		sys, env := linkTestbed(t, seed)
		if sys.Faults, err = fault.NewInjector(p, stats.SubSeed(seed, "fault")); err != nil {
			t.Fatal(err)
		}
		cc, err := NewCodingController(0)
		if err != nil {
			t.Fatal(err)
		}
		x := NewTransferer(sys, env, DefaultPolicy(), cc, stats.SubSeed(seed, "arq"))
		if fresh {
			c := freshCC
			x.frames.frameStorage, x.arqStorage, x.Controller = new(frameStorage), new(arqStorage), &c
		} else if !reflect.DeepEqual(*cc, freshCC) {
			t.Fatalf("a new controller reads %+v, want %+v", *cc, freshCC)
		}
		used := storage{x.frames.frameStorage, x.arqStorage, x.Controller}
		payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(seed, "payload")), n)
		st, err := x.Send(context.Background(), payload)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			x.Release()
		}
		return fmt.Sprintf("%+v received=%x", st.TransferStats, st.Received) +
			fmt.Sprintf(" retries=%d failures=%d desync=%d residual=%d corrected=%d level=%d",
				st.Retries, st.RoundFailures, st.DesyncErrors, st.ResidualErrors, st.CorrectedBits, st.FinalLevel), used
	}
	cold, _ := run(9, 0.9, 96, true)
	var reused storage
	for i := 0; i < 20 && (reused.frames == nil || reused.arq == nil || reused.cc == nil); i++ {
		_, dirty := run(10, 0.95, 300, false)
		warm, used := run(9, 0.9, 96, false)
		if warm != cold {
			t.Fatalf("ARQ on released storage:\n got %s\nwant %s", warm, cold)
		}
		if used.frames == dirty.frames {
			reused.frames = used.frames
		}
		if used.arq == dirty.arq {
			reused.arq = used.arq
		}
		if used.cc == dirty.cc {
			reused.cc = used.cc
		}
	}
	if reused.frames == nil || reused.arq == nil || reused.cc == nil {
		t.Errorf("no transferer ran on all the storage a released one left: frames %v, ranges %v, controller %v",
			reused.frames != nil, reused.arq != nil, reused.cc != nil)
	}
}
