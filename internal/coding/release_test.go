package coding

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/stats"
)

// TestRSParityOnDemandMatchesParity: the RS transferer computes a block's
// parity shards one at a time, as its waves send them, in storage an
// earlier block left dirty, and skips none it has not computed. Every
// shard it hands out must equal the one RS.Parity computes with all the
// others, for every block size the transferer codes (k = 1…8) at its
// parity ceiling, the widest m.
func TestRSParityOnDemandMatchesParity(t *testing.T) {
	const size = 12
	var s rsStorage
	rng := stats.NewRNG(17)
	for k := 1; k <= 8; k++ {
		m := min(MaxShards-k, 12*k+12)
		rs, err := s.code(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]byte, k)
		for i := range data {
			data[i] = stats.RandomBytes(rng, size)
		}
		want, err := rs.Parity(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range s.parity.resize(m, size) {
			for i := range p {
				p[i] = 0xA5 // what an earlier block might have left
			}
		}
		s.parityDone = 0
		// Ask in waves of growing stride, as later waves skip ahead of
		// the shards computed so far.
		for j := 0; j < m; j += 1 + j%4 {
			if got := s.parityShard(rs, data, j, nil); !bytes.Equal(got, want[j]) {
				t.Fatalf("k=%d m=%d: parity shard %d = %x on demand, %x from Parity", k, m, j, got, want[j])
			}
		}
		s.parityShard(rs, data, m-1, nil)
		for j := range m {
			if !bytes.Equal(s.parity.shards[j], want[j]) {
				t.Fatalf("k=%d m=%d: parity shard %d = %x after the last, %x from Parity", k, m, j, s.parity.shards[j], want[j])
			}
		}
	}
}

// coldWarmWorld builds the burst-fault LoS world of TestTransferOutcomesPinned
// at seed, with the bad state losing lossBad of its subframes, and
// instruments it into a fresh campaign.
func coldWarmWorld(t *testing.T, seed int64, lossBad float64) (*core.System, *channel.Environment, *obs.Campaign) {
	t.Helper()
	p, err := fault.Named("bursty")
	if err != nil {
		t.Fatal(err)
	}
	p.LossBad = lossBad
	sys, env := codingTestbed(t, seed)
	if sys.Faults, err = fault.NewInjector(p, stats.SubSeed(seed, "fault")); err != nil {
		t.Fatal(err)
	}
	camp := obs.NewCampaign("release", obs.CampaignOptions{})
	sys.Instrument(camp.Observer, 0, "release")
	return sys, env, camp
}

// outcome renders a transfer's stats, its received bytes and the link.*
// and coding.* counters of its campaign as one comparable string.
func outcome(st any, received []byte, camp *obs.Campaign) string {
	fields := map[string]string{}
	flattenStats(reflect.Indirect(reflect.ValueOf(st)), fields)
	lines := []string{fmt.Sprintf("Received=%x", received)}
	for k, v := range fields {
		lines = append(lines, k+"="+v)
	}
	for k, v := range camp.Registry.Snapshot().Deterministic().Counters {
		if strings.HasPrefix(k, "link.") || strings.HasPrefix(k, "coding.") {
			lines = append(lines, fmt.Sprintf("%s=%d", k, v))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}

// TestCodedTransfererReleaseStartsCold: an LT or RS transferer built on
// the storage a released one emptied — grown and written by a longer
// transfer over a more hostile world — must give every stat, the received
// bytes and every counter a transferer on fresh storage gives. The fresh
// run is not released, so no warm run inherits its storage, which holds
// the very parity the warm run needs. The pool hands released storage
// back most of the time, not always, so the warm run repeats until it has
// run on the dirty storage, and the test fails if that never happens.
func TestCodedTransfererReleaseStartsCold(t *testing.T) {
	payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(33, "payload")), 96)
	long := stats.RandomBytes(stats.NewRNG(stats.SubSeed(34, "payload")), 300)
	type transferer interface {
		Send(context.Context, []byte) (*Stats, error)
		Release()
	}
	schemes := []struct {
		name  string
		build func(sys *core.System, env *channel.Environment, seed int64) transferer
		// storage returns x's storage, after giving x fresh storage when
		// fresh is set.
		storage func(x transferer, fresh bool) any
	}{
		{"lt", func(sys *core.System, env *channel.Environment, seed int64) transferer {
			return NewFountainTransferer(sys, env, DefaultFountainConfig(), seed)
		}, func(x transferer, fresh bool) any {
			f := x.(*FountainTransferer)
			if fresh {
				f.fountainStorage = new(fountainStorage)
			}
			return f.fountainStorage
		}},
		{"rs", func(sys *core.System, env *channel.Environment, seed int64) transferer {
			return NewRSTransferer(sys, env, DefaultRSConfig(), seed)
		}, func(x transferer, fresh bool) any {
			r := x.(*RSTransferer)
			if fresh {
				r.rsStorage = &rsStorage{window: newLossWindow(rsWindowFrames)}
			}
			return r.rsStorage
		}},
	}
	for _, sc := range schemes {
		// run sends msg over the world of seed, releasing the transferer
		// unless it ran on fresh storage, and returns its outcome and the
		// storage it used.
		run := func(seed int64, lossBad float64, msg []byte, fresh bool) (string, any) {
			sys, env, camp := coldWarmWorld(t, seed, lossBad)
			x := sc.build(sys, env, stats.SubSeed(seed, sc.name))
			used := sc.storage(x, fresh)
			st, err := x.Send(context.Background(), msg)
			if err != nil {
				t.Fatal(err)
			}
			if !fresh {
				x.Release()
			}
			return outcome(st, st.Received, camp), used
		}
		cold, _ := run(33, 0.9, payload, true)
		reused := false
		for i := 0; i < 20 && !reused; i++ {
			_, dirty := run(34, 0.95, long, false)
			warm, used := run(33, 0.9, payload, false)
			if warm != cold {
				t.Fatalf("%s on released storage:\n got %s\nwant %s", sc.name, warm, cold)
			}
			reused = used == dirty
		}
		if !reused {
			t.Errorf("%s: no transferer ran on the storage a released one left", sc.name)
		}
	}
}

// TestFountainDecoderStorageStartsCold: a decoder on the storage an
// earlier decoder used and emptied — one of a larger code that took
// duplicates, peeled and was left undecoded with symbols pending — must
// report every symbol fresh or stale, count the attempts and recover the
// payload a decoder on fresh storage does.
func TestFountainDecoderStorageStartsCold(t *testing.T) {
	// decode feeds symbols 0…last of payload's code, but for every third,
	// which is lost, and repeats every other one; it stops early once the
	// payload is decoded, and checks it.
	decode := func(payload []byte, seed int64, last int, s *decoderStorage) string {
		f, err := NewFountain(len(payload), 12, seed)
		if err != nil {
			t.Fatal(err)
		}
		d := newFountainDecoder(f, s)
		var b strings.Builder
		for id := 0; id <= last && !d.Done(); id++ {
			if id%3 == 1 {
				continue // lost
			}
			sym, err := f.Symbol(payload, id)
			if err != nil {
				t.Fatal(err)
			}
			for range 1 + id%2 {
				ok, err := d.Add(id, sym)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%d:%v ", id, ok)
			}
		}
		if d.Done() {
			if got, err := d.Payload(); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("decoded %x, %v; want %x", got, err, payload)
			}
		}
		fmt.Fprintf(&b, "attempts=%d done=%v", d.Attempts, d.Done())
		s.empty()
		return b.String()
	}
	payload := stats.RandomBytes(stats.NewRNG(5), 96)
	cold := decode(payload, 9, 1000, new(decoderStorage))
	if !strings.HasSuffix(cold, "done=true") {
		t.Fatalf("the reference decode did not finish: %s", cold)
	}
	var s decoderStorage
	long := stats.RandomBytes(stats.NewRNG(6), 300)
	if dirty := decode(long, 10, 20, &s); strings.HasSuffix(dirty, "done=true") {
		t.Fatalf("the dirtying decode finished, leaving nothing pending: %s", dirty)
	}
	if warm := decode(payload, 9, 1000, &s); warm != cold {
		t.Fatalf("decoder on emptied storage:\n got %s\nwant %s", warm, cold)
	}
}

// TestFountainSymbolIDsFit16Bits: a symbol's ID rides in a 16-bit header,
// so an LT transfer must stop at 65,536 symbols even where its symbol cap,
// 16·K + 64, is higher — for a payload of 4,100 blocks here. A wrapped ID
// would be decoded against another symbol's blocks. Every subframe of the
// world is lost, so the transfer runs to its cap.
func TestFountainSymbolIDsFit16Bits(t *testing.T) {
	cfg := DefaultFountainConfig()
	payload := stats.RandomBytes(stats.NewRNG(8), 4100*cfg.BlockBytes)
	if 16*4100+64 <= 1<<16 {
		t.Fatal("the payload's symbol cap fits 16 bits; the test needs one that does not")
	}
	sys, _ := codingTestbed(t, 8)
	sys.AmbientLossProb = 1
	x := NewFountainTransferer(sys, nil, cfg, 8)
	defer x.Release()
	st, err := x.Send(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered {
		t.Fatal("delivered over a world that loses every subframe")
	}
	if st.FramesSent > 1<<16 {
		t.Fatalf("sent %d symbols, more than the 16-bit header's %d IDs", st.FramesSent, 1<<16)
	}
}
