// Package witag's repository-root benchmarks regenerate every table and
// figure of the paper (one benchmark per experiment — see DESIGN.md's
// per-experiment index) and measure the hot paths of the substrate.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks print their tables once (on the first iteration)
// and report domain metrics (BER, Kbps) via b.ReportMetric, so `go test
// -bench` output doubles as the reproduction record in EXPERIMENTS.md.
package witag_test

import (
	"context"
	"sync"
	"testing"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/dot11"
	"witag/internal/experiments"
	"witag/internal/phy"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/tag"
)

// printOnce gates table output so -benchtime iterations don't spam.
var printOnce sync.Map

func once(b *testing.B, key, table string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + table)
	}
}

// --- Paper figures and sections ---

func BenchmarkFigure5BERAndThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5Ctx(context.Background(), experiments.Figure5Config{Seed: 42, Runs: 2, Round: 300})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "fig5", res.Render())
		b.ReportMetric(res.Points[0].BER, "BER@1m")
		b.ReportMetric(res.Points[3].BER, "BER@4m")
		b.ReportMetric(res.RawRateKbps, "Kbps")
	}
}

func BenchmarkFigure6NLoSCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Figure6Config{Seed: 11, Runs: 30, Round: 150}
		a, err := experiments.Figure6Ctx(context.Background(), experiments.LocationA, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Seed = 12
		loc, err := experiments.Figure6Ctx(context.Background(), experiments.LocationB, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckFigure6Shape(a, loc); err != nil {
			b.Fatal(err)
		}
		once(b, "fig6", a.Render()+"\n"+loc.Render())
		b.ReportMetric(a.P90, "p90-A")
		b.ReportMetric(loc.P90, "p90-B")
	}
}

func BenchmarkFigure3ChannelChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3Ctx(context.Background(), sim.Runner{}, 9)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "fig3", res.Render())
		b.ReportMetric(res.Points[2].FlipDeltaDb-res.Points[2].OnOffDeltaDb, "dB-gain")
	}
}

func BenchmarkSection41ThroughputSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Section41SweepCtx(context.Background(), sim.Runner{})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "s41", res.Render())
		best, err := res.Best()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(best.TagRateKbps, "Kbps")
	}
}

func BenchmarkPriorSystemComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PriorSystemComparison(5)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "compare", res.Render())
		b.ReportMetric(res.MeasuredRateKbps, "Kbps")
	}
}

func BenchmarkSection7PowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Section7PowerCtx(context.Background(), sim.Runner{}, 5)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "power", res.Render())
		b.ReportMetric(res.Rows[0].PowerW*1e6, "µW-WiTAG")
	}
}

func BenchmarkEncryptionTransparency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(context.Background(), sim.Runner{}, "crypto", 16, 120)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "encryption", res.Render())
		b.ReportMetric(res.Rows[2].BER, "BER-CCMP")
	}
}

// --- Ablations ---

func BenchmarkAblationSwitchMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(context.Background(), sim.Runner{}, "switch", 11, 200)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-switch", res.Render())
		b.ReportMetric(res.Rows[1].BER-res.Rows[0].BER, "BER-penalty")
	}
}

func BenchmarkAblationTriggerCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(context.Background(), sim.Runner{}, "trigger", 12, 100)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-trigger", res.Render())
	}
}

func BenchmarkAblationFEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(context.Background(), sim.Runner{}, "fec", 13, 5)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-fec", res.Render())
	}
}

func BenchmarkAblationAMPDUSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(context.Background(), sim.Runner{}, "ampdu", 14, 100)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-ampdu", res.Render())
	}
}

func BenchmarkAblationRobustRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(context.Background(), sim.Runner{}, "mcs", 15, 100)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-rate", res.Render())
	}
}

// --- Substrate hot paths ---

// benchmarkQueryRound times one Monte-Carlo round as the trials run it —
// people move, then the tag sends fresh bits — on a testbed deployment.
func benchmarkQueryRound(b *testing.B, sys *core.System, env *channel.Environment, err error) {
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(2)
	bits := make([][]byte, 64)
	for i := range bits {
		bits[i] = stats.RandomBits(rng, sys.Spec.DataLen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Advance(0.05)
		if _, err := sys.QueryRound(bits[i%len(bits)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRoundLoS is a Figure 5 round, tag mid-span.
func BenchmarkQueryRoundLoS(b *testing.B) {
	sys, env, err := experiments.LoSTestbed(4, 1)
	benchmarkQueryRound(b, sys, env, err)
}

// BenchmarkQueryRoundNLoS is a Figure 6 round at location B, behind three
// walls, where the decode model works hardest.
func BenchmarkQueryRoundNLoS(b *testing.B) {
	sys, env, err := experiments.NLoSTestbed(experiments.LocationB, 1)
	benchmarkQueryRound(b, sys, env, err)
}

// BenchmarkQueryRoundRing is a §7 power-table round: the 50 kHz ring
// oscillator at 35 °C drifts, so most corrupted subframes get a coverage,
// and so a decode-model segment size, of their own.
func BenchmarkQueryRoundRing(b *testing.B) {
	sys, env, err := experiments.LoSTestbed(1, 1)
	if err == nil {
		sys.Tag.Clock = tag.NewRingOscillator(50e3, nil)
		sys.TempC = 35
	}
	benchmarkQueryRound(b, sys, env, err)
}

func BenchmarkOFDMTransmit(b *testing.B) {
	cfg := phy.DefaultConfig()
	psdu := stats.RandomBytes(stats.NewRNG(3), 1500)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.Transmit(psdu, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOFDMReceive(b *testing.B) {
	cfg := phy.DefaultConfig()
	psdu := stats.RandomBytes(stats.NewRNG(4), 1500)
	wf, err := phy.Transmit(psdu, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rx := phy.ApplyChannel(wf, func(sym, sc int) complex128 { return 1 }, 1/phy.SNRFromDb(20), stats.NewRNG(5))
	csi, err := phy.EstimateCSI(rx.LTF)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.Receive(rx, csi, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiDecode(b *testing.B) {
	rng := stats.NewRNG(6)
	data := stats.RandomBits(rng, 4096)
	coded := phy.ConvEncode(append(data, make([]byte, 6)...))
	b.SetBytes(int64(len(data)) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.ViterbiDecode(coded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAMPDUMarshalDeaggregate(b *testing.B) {
	var mpdus [][]byte
	for i := 0; i < 64; i++ {
		f := &dot11.QoSDataFrame{
			FC:     dot11.FrameControl{Type: dot11.TypeQoSNull, ToDS: true},
			Addr1:  dot11.MACAddr{2, 0, 0, 0, 0, 1},
			Addr2:  dot11.MACAddr{2, 0, 0, 0, 0, 2},
			SeqNum: uint16(i),
		}
		w, err := f.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		mpdus = append(mpdus, w)
	}
	agg, err := dot11.Aggregate(mpdus)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psdu, err := agg.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dot11.Deaggregate(psdu); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelEvaluation(b *testing.B) {
	env := channel.NewEnvironment(7)
	env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
	env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
	env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
	tagRef := &channel.TagReflection{Pos: channel.Point{X: 2, Y: 0.3}, Coeff: 68}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Channel(channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0}, tagRef); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChannelPair times the channel phase of one round: both tag
// states from one shared (cached) prefix, into reused buffers. LoS is a
// two-reflector lab with four walking people; NLoS is Figure 6's location
// B, six people behind three walls, where every scatterer also pays its
// wall loss.
func BenchmarkChannelPair(b *testing.B) {
	los := func() (*channel.Environment, channel.Point, channel.Point, channel.Point) {
		env := channel.NewEnvironment(7)
		env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
		env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
		env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
		return env, channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0}, channel.Point{X: 2, Y: 0.3}
	}
	nlos := func() (*channel.Environment, channel.Point, channel.Point, channel.Point) {
		_, env, err := experiments.NLoSTestbed(experiments.LocationB, 7)
		if err != nil {
			b.Fatal(err)
		}
		return env, channel.Point{X: 0, Y: 0}, channel.Point{X: 17, Y: 0}, channel.Point{X: 1, Y: 0.3}
	}
	for _, c := range []struct {
		name  string
		world func() (env *channel.Environment, tx, rx, tagPos channel.Point)
	}{{"LoS", los}, {"NLoS", nlos}} {
		b.Run(c.name, func(b *testing.B) {
			env, tx, rx, tagPos := c.world()
			rest := &channel.TagReflection{Pos: tagPos, Coeff: 68, ExcessPathM: 7.5}
			flip := &channel.TagReflection{Pos: tagPos, Coeff: -68, ExcessPathM: 7.5}
			var ha, hb []complex128
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				ha, hb, err = env.ChannelPair(tx, rx, rest, flip, ha, hb)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCodecFECEncodeDecode(b *testing.B) {
	codec := core.Codec{FEC: true, InterleaveDepth: 12}
	payload := stats.RandomBytes(stats.NewRNG(8), 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bits, err := codec.Encode(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := codec.Decode(bits); err != nil {
			b.Fatal(err)
		}
	}
}
