package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"witag/internal/channel"
	"witag/internal/coding"
	"witag/internal/core"
	"witag/internal/dot11"
	"witag/internal/experiments"
	"witag/internal/fault"
	"witag/internal/link"
	"witag/internal/phy"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/tag"
	"witag/internal/traffic"
)

// The traced run calls the layers' exported functions in-process, on one
// goroutine and with no observer attached, and records spans from this
// package around each call. It never reaches into the program's
// instrumentation, so it stays valid however that is reshaped.

const (
	// shadowEvery is the period, in rounds, of the shadow replay.
	shadowEvery = 8
	// advanceStepS is the environment step sim.MeasureRun takes before
	// every round; the fidelity checks fail if the two disagree.
	advanceStepS = 0.05
	// probeCalls sizes each coding micro-probe: enough samples for a p99
	// tail with ten samples beyond it.
	probeCalls = 2000
	// sendProbeWorlds is how many worlds the link/coding send probe runs
	// each scheme over on the workloads that do no transfers themselves.
	sendProbeWorlds = 4
	// probeRounds is the length of the round probe run on each coding
	// profile's world, for the per-round layers the transfers hide.
	probeRounds = 256
)

// span is one timed call. Spans of one trial share Trial; Round is -1
// outside the round loop. Calls counts the layer calls a span aggregates.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Trial  int    `json:"trial"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

// tracer keeps spans, per-call timings and work counts in memory; they
// are written out only when the traced run ends.
type tracer struct {
	t0 time.Time
	// every is the shadow-replay period in rounds; 0 disables it.
	every   int
	spans   []span
	samples map[string][]float64
	counts  map[string]float64
	// Buffers for the exact allocation counts around one call; fields,
	// so reading them never allocates.
	ms0, ms1 runtime.MemStats
}

func newTracer(every int) *tracer {
	return &tracer{t0: time.Now(), every: every, samples: map[string][]float64{}, counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a parent span and returns its id.
func (t *tracer) open(name string, parent, trial, round int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Trial: trial, Round: round, Start: t.now()})
	return len(t.spans)
}

// close ends span id and returns its duration.
func (t *tracer) close(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = t.now()
	return time.Duration(s.End - s.Start)
}

// record adds a finished span timed by the caller with now.
func (t *tracer) record(name string, parent, trial, round int, start, end int64) time.Duration {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Trial: trial, Round: round, Start: start, End: end})
	return time.Duration(end - start)
}

// observe adds a timing sample to the named metric, in the unit its
// suffix names.
func (t *tracer) observe(name string, d time.Duration) {
	v := float64(d) / float64(time.Microsecond)
	if strings.HasSuffix(name, "_ms") {
		v = float64(d) / float64(time.Millisecond)
	}
	t.samples[name] = append(t.samples[name], v)
}

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// allocs measures the heap allocations of fn exactly: ReadMemStats
// flushes every per-P cache, unlike a runtime/metrics read. The timing
// span is taken inside the bracket. It returns fn's start and end.
func (t *tracer) allocs(prefix string, fn func()) (start, end int64) {
	runtime.ReadMemStats(&t.ms0)
	start = t.now()
	fn()
	end = t.now()
	runtime.ReadMemStats(&t.ms1)
	t.count(prefix+".alloc_bytes", float64(t.ms1.TotalAlloc-t.ms0.TotalAlloc))
	t.count(prefix+".allocs", float64(t.ms1.Mallocs-t.ms0.Mallocs))
	t.count(prefix+".alloc_calls", 1)
	return start, end
}

// trial is one sim.MeasureRun-style measurement the traced run rebuilds
// from the same seed labels as the workload.
type trial struct {
	id       int
	build    func() (*core.System, *channel.Environment, error)
	rounds   int
	dataSeed int64
}

// run drives tr with the steps sim.MeasureRun takes — Advance, fresh
// random bits, QueryRound — recording a span around each call, and
// shadow-replays every t.every-th round. It returns the trial's RunStats,
// computed as MeasureRun computes them, and the trial's time net of the
// shadow work.
func (t *tracer) run(ctx context.Context, tr trial) (sim.RunStats, time.Duration, error) {
	root := t.open("sim.trial", 0, tr.id, -1)
	b := t.open("sim.build", root, tr.id, -1)
	sys, env, err := tr.build()
	t.observe("sim.build_us", t.close(b))
	if err != nil {
		return sim.RunStats{}, 0, err
	}
	t.count("trials", 1)
	var shadowNs int64
	var twin *core.System
	if t.every > 0 {
		// The shadow's stateful objects — scheduler, tag switch, RNGs —
		// come from a twin build of the same seed, so replaying a call
		// never advances the real trial's state.
		s := t.now()
		if twin, _, err = tr.build(); err != nil {
			return sim.RunStats{}, 0, err
		}
		shadowNs += t.now() - s
	}
	rng := stats.NewRNG(tr.dataSeed)
	var rs sim.RunStats
	detected := 0
	for r := 0; r < tr.rounds; r++ {
		if err := ctx.Err(); err != nil {
			return rs, 0, err
		}
		s := t.now()
		env.Advance(advanceStepS)
		t.observe("channel.advance_us", t.record("channel.advance", root, tr.id, r, s, t.now()))
		bits := stats.RandomBits(rng, sys.Spec.DataLen)
		var res *core.RoundResult
		var qerr error
		query := func() { res, qerr = sys.QueryRound(bits) }
		shadow := t.every > 0 && r%t.every == 0
		var qs, qe int64
		if shadow {
			before := t.now()
			qs, qe = t.allocs("core", query)
			shadowNs += t.now() - before - (qe - qs)
		} else {
			qs = t.now()
			query()
			qe = t.now()
		}
		t.observe("core.round_us", t.record("core.query_round", root, tr.id, r, qs, qe))
		if qerr != nil {
			return rs, 0, qerr
		}
		if shadow {
			s := t.now()
			if err := t.shadow(root, tr.id, r, sys, twin, env, res); err != nil {
				return rs, 0, err
			}
			shadowNs += t.now() - s
		}
		rs.Errors += res.BitErrors
		rs.Bits += len(res.TxBits)
		rs.Airtime += res.Airtime
		if res.Detected {
			detected++
		}
	}
	if rs.Bits > 0 {
		rs.BER = float64(rs.Errors) / float64(rs.Bits)
	}
	if tr.rounds > 0 {
		rs.DetectionRate = float64(detected) / float64(tr.rounds)
	}
	t.count("core.rounds", float64(tr.rounds))
	t.count("core.subframes", float64(tr.rounds*sys.Spec.Total()))
	return rs, t.close(root) - time.Duration(shadowNs), nil
}

// shadow times the layer calls QueryRound made in round r at that round's
// real inputs: the frozen environment, the round's bits and detection
// verdict. Stateful objects come from twin.
func (t *tracer) shadow(parent, trialID, r int, sys, twin *core.System, env *channel.Environment, res *core.RoundResult) error {
	sh := t.open("shadow", parent, trialID, r)
	defer t.close(sh)
	spec := sys.Spec

	// Channel: the rest and flip states, as QueryRound evaluates them.
	var h [2][]complex128
	excess := twin.Tag.ExcessPathM()
	for i, flipped := range []bool{false, true} {
		coeff, err := twin.Tag.ReflectionFor(flipped)
		if err != nil {
			return err
		}
		refl := &channel.TagReflection{Pos: sys.TagPos, Coeff: coeff, ExcessPathM: excess}
		s := t.now()
		h[i], err = env.Channel(sys.ClientPos, sys.APPos, refl)
		t.observe("channel.eval_us", t.record("channel.eval", sh, trialID, r, s, t.now()))
		if err != nil {
			return err
		}
		paths := 1 + len(env.Reflectors) + len(env.Scatterers)
		if coeff != 0 {
			paths++
		}
		t.count("channel.path_sc", float64(paths*env.NumSubcarriers))
		t.count("channel.evals", 1)
	}
	snr := channel.SNRLinear(env.TxPowerDbm, channel.MeanPower(h[0]), env.NoiseFloorDbm)
	s := t.now()
	distortion, err := phy.DistortionAfterCPE(h[1], h[0])
	t.observe("phy.distortion_us", t.record("phy.distortion", sh, trialID, r, s, t.now()))
	if err != nil {
		return err
	}
	dirtySINR := phy.EffectiveSINR(snr, distortion)

	// Query build: the A-MPDU, its PSDU and the per-subframe airtimes.
	overhead := 0
	if sys.Cipher != nil {
		overhead = sys.Cipher.Overhead()
	}
	var psdu []byte
	var airs []time.Duration
	qs, qe := t.allocs("dot11", func() {
		var agg *dot11.AMPDU
		if agg, _, err = spec.BuildQuery(twin.Scheduler); err != nil {
			return
		}
		if psdu, err = agg.Marshal(); err != nil {
			return
		}
		airs, err = spec.SubframeAirtimes(overhead)
	})
	t.observe("dot11.query_build_us", t.record("dot11.query_build", sh, trialID, r, qs, qe))
	if err != nil {
		return err
	}
	t.count("dot11.query_bytes", float64(len(psdu)))

	// Tag: the corruption coverage of the data subframes, on detection.
	coverage := make([]float64, spec.DataLen)
	if res.Detected {
		timing, err := nominalTiming(sys, airs)
		if err != nil {
			return err
		}
		s := t.now()
		coverage, err = twin.Tag.CorruptionCoverageSchedule(timing, res.TxBits, airs[spec.TriggerLen:], sys.TempC)
		t.observe("tag.coverage_us", t.record("tag.coverage", sh, trialID, r, s, t.now()))
		if err != nil {
			return err
		}
	}

	// PHY decode model: one call per clean and per corrupted segment of
	// every subframe, timed one by one.
	type segment struct {
		sinr float64
		bits int
	}
	var segs []segment
	for i := 0; i < spec.Total(); i++ {
		f := 0.0
		if i >= spec.TriggerLen {
			f = math.Min(math.Max(coverage[i-spec.TriggerLen], 0), 1)
		}
		sub := onAirBits(spec, i, overhead)
		clean := int(math.Round(float64(sub) * (1 - f)))
		segs = append(segs, segment{snr, clean}, segment{dirtySINR, sub - clean})
	}
	dm := t.open("phy.decode_model", sh, trialID, r)
	calls := 0
	for _, sg := range segs {
		if sg.bits <= 0 {
			continue
		}
		s := t.now()
		_, err := phy.SubframeSuccessProb(spec.MCS, sg.sinr, sg.bits)
		t.observe("phy.decode_model_us", time.Duration(t.now()-s))
		if err != nil {
			return err
		}
		calls++
	}
	t.close(dm)
	t.spans[dm-1].Calls = calls
	for _, sg := range segs {
		if sg.bits <= 0 {
			continue
		}
		raw, err := phy.UncodedBER(spec.MCS.Modulation, sg.sinr)
		if err != nil {
			return err
		}
		if raw > 0 {
			t.count("phy.decode_full", 1)
		}
		t.count("phy.decode_calls", 1)
	}
	return nil
}

// onAirBits is subframe i's on-air size in bits: delimiter, QoS header,
// payload, cipher overhead and FCS, padded to the 4-byte A-MPDU grid.
func onAirBits(q core.QuerySpec, i, cipherOverhead int) int {
	size := 1
	if q.PayloadSizes != nil {
		size = q.PayloadSizes[i]
	}
	n := dot11.DelimiterLen + dot11.QoSHeaderLen + size + cipherOverhead + 4
	return (n + 3) / 4 * 4 * 8
}

// nominalTiming is the tag's trigger measurement without clock jitter:
// the mean trigger subframe in ticks of a jitter-free copy of the tag's
// clock, snapped to the protocol grid. The real measurement draws jitter
// from the tag's RNG, which the shadow must not touch; 5 ppm of jitter
// on a one-tick subframe leaves the rounded count unchanged.
func nominalTiming(sys *core.System, airs []time.Duration) (tag.QueryTiming, error) {
	n := sys.Spec.TriggerLen
	var trig time.Duration
	for _, a := range airs[:n] {
		trig += a
	}
	c := sys.Tag.Clock
	clk := tag.Clock{NominalHz: c.NominalHz, DriftPPM: c.DriftPPM, TempCoefPPMPerC: c.TempCoefPPMPerC, NominalTempC: c.NominalTempC}
	ticks, err := clk.TicksFor(trig/time.Duration(n), sys.TempC)
	if err != nil {
		return tag.QueryTiming{}, err
	}
	if grid := int(core.ProtocolGrid.Seconds()*c.NominalHz + 0.5); grid >= 1 && ticks >= grid/2 {
		ticks = max((ticks+grid/2)/grid, 1) * grid
	}
	ticks = max(ticks, 1)
	return tag.QueryTiming{DataStartTick: ticks * n, SubframeTicks: ticks}, nil
}

// transferOutcome is one transfer's result, as the coding sweep
// aggregates it.
type transferOutcome struct {
	delivered                                     bool
	rounds, frames, decodeAttempts, parityResizes int
	goodput                                       float64
}

// transfer builds a world and times one Send of its payload under scheme
// (a span named link.send for ARQ, coding.send for LT and RS).
func (t *tracer) transfer(ctx context.Context, id int, scheme string, build func() (*core.System, *channel.Environment, []byte, int64, error)) (transferOutcome, *core.System, time.Duration, error) {
	root := t.open("sim.trial", 0, id, -1)
	b := t.open("sim.build", root, id, -1)
	sys, env, payload, seed, err := build()
	t.observe("sim.build_us", t.close(b))
	if err != nil {
		return transferOutcome{}, nil, 0, err
	}
	t.count("trials", 1)
	layer := "coding"
	if scheme == "arq" {
		layer = "link"
	}
	s := t.open(layer+".send", root, id, -1)
	out, received, err := send(ctx, sys, env, scheme, payload, seed)
	t.observe(layer+".send_ms", t.close(s))
	if err != nil {
		return out, nil, 0, err
	}
	if out.delivered && !bytes.Equal(received, payload) {
		return out, nil, 0, fmt.Errorf("%s delivered a corrupted payload (trial %d)", scheme, id)
	}
	t.count(layer+".rounds", float64(out.rounds))
	t.count(layer+".frames", float64(out.frames))
	t.count(layer+".transfers", 1)
	return out, sys, t.close(root), nil
}

// send moves payload over sys with the named scheme's transferer at its
// experiment operating point.
func send(ctx context.Context, sys *core.System, env *channel.Environment, scheme string, payload []byte, seed int64) (transferOutcome, []byte, error) {
	switch scheme {
	case "arq":
		cc, err := link.NewCodingController(0)
		if err != nil {
			return transferOutcome{}, nil, err
		}
		st, err := link.NewTransferer(sys, env, link.DefaultPolicy(), cc, seed).Send(ctx, payload)
		if err != nil {
			return transferOutcome{}, nil, err
		}
		return transferOutcome{delivered: st.Delivered, rounds: st.Rounds, frames: st.FramesSent, goodput: st.GoodputBps()}, st.Received, nil
	case "fountain":
		st, err := coding.NewFountainTransferer(sys, env, coding.DefaultFountainConfig(), seed).Send(ctx, payload)
		if err != nil {
			return transferOutcome{}, nil, err
		}
		return transferOutcome{delivered: st.Delivered, rounds: st.Rounds, frames: st.FramesSent,
			decodeAttempts: st.DecodeAttempts, goodput: st.GoodputBps()}, st.Received, nil
	case "rs":
		st, err := coding.NewRSTransferer(sys, env, coding.DefaultRSConfig(), seed).Send(ctx, payload)
		if err != nil {
			return transferOutcome{}, nil, err
		}
		return transferOutcome{delivered: st.Delivered, rounds: st.Rounds, frames: st.FramesSent,
			decodeAttempts: st.DecodeAttempts, parityResizes: st.ParityResizes, goodput: st.GoodputBps()}, st.Received, nil
	}
	return transferOutcome{}, nil, fmt.Errorf("unknown scheme %q", scheme)
}

// sendProbe runs one transfer per scheme over each of sendProbeWorlds
// worlds of a workload that does no transfers itself, so the link and
// coding layers are timed at that workload's channel too.
func (t *tracer) sendProbe(ctx context.Context, seed int64, world func(i int) (*core.System, *channel.Environment, error)) error {
	payloadBytes := experiments.DefaultAdaptiveCodingConfig().PayloadBytes
	for i := 0; i < sendProbeWorlds; i++ {
		label := func(leaf string) int64 { return stats.SubSeed(seed, "perfbench", "send", fmt.Sprint(i), leaf) }
		for _, scheme := range experiments.CodingSchemes {
			_, _, _, err := t.transfer(ctx, -1, scheme, func() (*core.System, *channel.Environment, []byte, int64, error) {
				sys, env, err := world(i)
				return sys, env, stats.RandomBytes(stats.NewRNG(label("payload")), payloadBytes), label("xfer"), err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// codingProbes times the coding primitives one call at a time at the
// coding sweep's frame sizes: LT symbols and decoder adds over a payload,
// RS parity and reconstruction at the transferer's block geometry, and a
// frame codec round trip.
func (t *tracer) codingProbes(seed int64) error {
	payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(seed, "perfbench", "probe")), experiments.DefaultAdaptiveCodingConfig().PayloadBytes)
	fc := coding.DefaultFountainConfig()
	f, err := coding.NewFountain(len(payload), fc.BlockBytes, stats.SubSeed(seed, "perfbench", "lt"))
	if err != nil {
		return err
	}
	for id := 0; id < probeCalls; id++ {
		s := time.Now()
		if _, err := f.Symbol(payload, id); err != nil {
			return err
		}
		t.observe("coding.symbol_us", time.Since(s))
	}
	for n, id := 0, 0; n < probeCalls; {
		dec := coding.NewFountainDecoder(f)
		for ; !dec.Done() && n < probeCalls; id, n = id+1, n+1 {
			sym, err := f.Symbol(payload, id)
			if err != nil {
				return err
			}
			s := time.Now()
			if _, err := dec.Add(id, sym); err != nil {
				return err
			}
			t.observe("coding.fountain_add_us", time.Since(s))
		}
	}

	// The RS transferer codes each block once at its parity ceiling.
	rc := coding.DefaultRSConfig()
	k := rc.DataShards
	rs, err := coding.NewRS(k, min(coding.MaxShards-k, 12*k+12))
	if err != nil {
		return err
	}
	data := make([][]byte, k) // the sweep's 96-byte payload fills one block
	for i := range data {
		data[i] = payload[i*rc.ShardBytes : (i+1)*rc.ShardBytes]
	}
	var parity [][]byte
	for i := 0; i < probeCalls/4; i++ {
		s := time.Now()
		if parity, err = rs.Parity(data); err != nil {
			return err
		}
		t.observe("coding.rs_parity_us", time.Since(s))
	}
	for i := 0; i < probeCalls/4; i++ {
		// Two data shards lost, the first two parity shards stand in.
		shards := make([][]byte, rs.K+rs.M)
		copy(shards, data)
		shards[0], shards[k/2] = nil, nil
		shards[k], shards[k+1] = parity[0], parity[1]
		s := time.Now()
		if err := rs.Reconstruct(shards); err != nil {
			return err
		}
		t.observe("coding.rs_reconstruct_us", time.Since(s))
		if !bytes.Equal(shards[0], data[0]) {
			return fmt.Errorf("RS probe reconstructed a wrong shard")
		}
	}

	frame := append([]byte{0, 1}, payload[:fc.BlockBytes]...)
	codec := coding.DefaultCodec()
	for i := 0; i < probeCalls; i++ {
		s := time.Now()
		bits, err := codec.Encode(frame)
		if err != nil {
			return err
		}
		got, _, err := codec.Decode(bits)
		t.observe("core.codec_us", time.Since(s))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, frame) {
			return fmt.Errorf("codec probe round trip changed the frame")
		}
	}
	return nil
}

// checkUnperturbed rebuilds tr fresh and measures it with sim.MeasureRun
// itself: the traced loop, shadow replay included, must have produced the
// same RunStats.
func checkUnperturbed(ctx context.Context, tr trial, got sim.RunStats) error {
	sys, env, err := tr.build()
	if err != nil {
		return err
	}
	want, err := sim.MeasureRun(ctx, sys, env, tr.rounds, tr.dataSeed)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("traced trial %d measured %+v, sim.MeasureRun %+v", tr.id, got, want)
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Workload trials, rebuilt from the experiments' own seed labels.

func fig5Trial(seed int64, d float64, run, rounds, id int) trial {
	dLabel, runLabel := fmt.Sprintf("d=%g", d), fmt.Sprintf("run=%d", run)
	return trial{
		id: id,
		build: func() (*core.System, *channel.Environment, error) {
			return experiments.LoSTestbed(d, stats.SubSeed(seed, "fig5", dLabel, runLabel))
		},
		rounds:   rounds,
		dataSeed: stats.SubSeed(seed, "fig5", dLabel, runLabel, "data"),
	}
}

func fig6Trial(seed int64, loc experiments.NLoSLocation, run, rounds, id int) trial {
	locLabel, runLabel := fmt.Sprintf("loc=%c", loc), fmt.Sprintf("run=%d", run)
	return trial{
		id: id,
		build: func() (*core.System, *channel.Environment, error) {
			return nlosRunDeployment(loc, seed, locLabel, runLabel)
		},
		rounds:   rounds,
		dataSeed: stats.SubSeed(seed, "fig6", locLabel, runLabel, "data"),
	}
}

// nlosRunDeployment is a copy of the Figure 6 harness's unexported
// per-run wiring over experiments.NLoSTestbed: ambient loss, the
// robust-rate calibration and the wall-penetration drift. The fig6
// fidelity check fails if the copy and the original diverge.
func nlosRunDeployment(loc experiments.NLoSLocation, rootSeed int64, locLabel, runLabel string) (*core.System, *channel.Environment, error) {
	sys, env, err := experiments.NLoSTestbed(loc, stats.SubSeed(rootSeed, "fig6", locLabel, runLabel))
	if err != nil {
		return nil, nil, err
	}
	ambRng := stats.NewRNG(stats.SubSeed(rootSeed, "fig6", locLabel, runLabel, "ambient"))
	sys.AmbientLossProb = stats.Exponential(ambRng, 0.005)
	snr, err := env.SNR(sys.ClientPos, sys.APPos)
	if err != nil {
		return nil, nil, err
	}
	const subBits = 400
	if mcs, err := phy.RobustMCS(snr/1.6, subBits, 0.9995); err == nil {
		sys.Spec.MCS = mcs
	} else {
		mcs0, err := dot11.HTMCS(0)
		if err != nil {
			return nil, nil, err
		}
		sys.Spec.MCS = mcs0
	}
	if err := sys.Reshape(); err != nil {
		return nil, nil, err
	}
	if len(env.Walls) > 0 {
		jitter := math.Max(math.Min(stats.Gaussian(ambRng, 0, 1.6), 2.2), -2.2)
		env.Walls[0].AttenuationDb += jitter
	}
	return sys, env, nil
}

// codingWorld rebuilds the coding sweep's labeled world (profile, tr):
// the testbed, fault injector, traffic generator and payload, plus the
// transferer seed. The scheme never enters the seed tree.
func codingWorld(seed int64, prof experiments.CodingProfile, tr, payloadBytes int) (*core.System, *channel.Environment, []byte, int64, error) {
	world := []string{"coding", "pf=" + prof.Name, fmt.Sprintf("tr=%d", tr)}
	label := func(leaf string) int64 {
		return stats.SubSeed(seed, append(append([]string(nil), world...), leaf)...)
	}
	sys, env, err := experiments.LoSTestbed(2, label("env"))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if prof.Fault != "" {
		fp, err := fault.Named(prof.Fault)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if sys.Faults, err = fault.NewInjector(fp, label("fault")); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	if prof.Traffic != "" {
		tp, err := traffic.Named(prof.Traffic)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if sys.Traffic, err = traffic.NewGenerator(tp, label("traffic")); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	payload := stats.RandomBytes(stats.NewRNG(label("payload")), payloadBytes)
	return sys, env, payload, label("xfer"), nil
}

// codingCells runs transfers worlds of prof under every scheme and
// aggregates them into cells exactly as the coding sweep does, in the
// same order of float operations.
func (t *tracer) codingCells(ctx context.Context, seed int64, prof experiments.CodingProfile, transfers, payloadBytes int) ([]experiments.CodingCell, error) {
	var cells []experiments.CodingCell
	dataLen := 0
	for si, scheme := range experiments.CodingSchemes {
		cell := experiments.CodingCell{Scheme: scheme}
		var goodput float64
		delivered := 0
		for tr := 0; tr < transfers; tr++ {
			id := si*transfers + tr
			out, sys, d, err := t.transfer(ctx, id, scheme, func() (*core.System, *channel.Environment, []byte, int64, error) {
				return codingWorld(seed, prof, tr, payloadBytes)
			})
			if err != nil {
				return nil, err
			}
			t.book(d, out.rounds)
			dataLen = sys.Spec.DataLen
			if out.delivered {
				delivered++
				goodput += out.goodput
			}
			cell.MeanRounds += float64(out.rounds)
			cell.MeanFrames += float64(out.frames)
			cell.DecodeAttempts += float64(out.decodeAttempts)
			cell.ParityResizes += float64(out.parityResizes)
			cell.EnergySlots += float64(out.rounds * sys.Spec.Total())
		}
		nT := float64(transfers)
		cell.Delivery = float64(delivered) / nT
		if delivered > 0 {
			cell.GoodputKbps = goodput / float64(delivered) / 1000
		}
		cell.MeanRounds /= nT
		cell.MeanFrames /= nT
		cell.DecodeAttempts /= nT
		cell.ParityResizes /= nT
		cell.EnergySlots /= nT
		cells = append(cells, cell)
	}
	for i := range cells {
		cells[i].OverheadRatio = cells[i].MeanRounds * float64(dataLen) / float64(8*payloadBytes)
	}
	return cells, nil
}
