package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"witag/internal/channel"
	"witag/internal/coding"
	"witag/internal/core"
	"witag/internal/link"
	"witag/internal/obs"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/traffic"
)

func TestAdaptiveCodingSweepShape(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	cfg.Transfers = 30 // reduced scale; witag-bench runs the default 60
	res, err := AdaptiveCodingCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ShapeChecks(); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.Profiles) {
		t.Fatalf("%d points for %d profiles", len(res.Points), len(cfg.Profiles))
	}
	for _, p := range res.Points {
		if len(p.Cells) != len(CodingSchemes) {
			t.Fatalf("profile %q has %d cells, want %d", p.Profile.Name, len(p.Cells), len(CodingSchemes))
		}
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestAdaptiveCodingConfigValidation(t *testing.T) {
	base := DefaultAdaptiveCodingConfig()
	cases := map[string]func(c *AdaptiveCodingConfig){
		"zero payload":    func(c *AdaptiveCodingConfig) { c.PayloadBytes = 0 },
		"zero transfers":  func(c *AdaptiveCodingConfig) { c.Transfers = 0 },
		"no profiles":     func(c *AdaptiveCodingConfig) { c.Profiles = nil },
		"unknown fault":   func(c *AdaptiveCodingConfig) { c.Profiles[0].Fault = "nope" },
		"unknown traffic": func(c *AdaptiveCodingConfig) { c.Profiles[0].Traffic = "nope" },
		"unknown scheme":  func(c *AdaptiveCodingConfig) { c.Schemes = []string{"arq", "turbo"} },
		"duplicate":       func(c *AdaptiveCodingConfig) { c.Schemes = []string{"rs", "rs"} },
	}
	for name, mutate := range cases {
		cfg := base
		cfg.Profiles = append([]CodingProfile(nil), base.Profiles...)
		mutate(&cfg)
		if _, err := AdaptiveCodingCtx(context.Background(), cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestCodingSchemeOutsideSeedTree pins the paired-world contract: the
// scheme under comparison must never enter the seed tree, so the same
// (profile, tr) world presents byte-identical channel realizations to
// ARQ, fountain and RS. Build the world through the harness's own
// codingWorldBuild, labels and sim.InWorld for each scheme, drive
// identical query rounds, and require the observable channel behaviour
// to match bit for bit, while the scheme still names the trial.
func TestCodingSchemeOutsideSeedTree(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	cfg.Seed = 99
	type roundObs struct {
		Detected  bool
		BALost    bool
		BitErrors int
		RxBits    []byte
	}
	for _, prof := range cfg.Profiles {
		var ref []roundObs
		for si, scheme := range CodingSchemes {
			w := codingWorldTrial(cfg, prof, scheme, 0, 3)
			if !strings.HasSuffix(w.Labels, "/scheme="+scheme) {
				t.Fatalf("profile %q: trial labels %q do not name scheme %q", prof.Name, w.Labels, scheme)
			}
			got, err := sim.InWorld(w, nil, func(sys *core.System, env *channel.Environment) ([]roundObs, error) {
				var got []roundObs
				bits := make([]byte, sys.Spec.DataLen)
				for i := range bits {
					bits[i] = byte(i) & 1
				}
				for r := 0; r < 40; r++ {
					res, err := sys.QueryRound(bits)
					if err != nil {
						return nil, err
					}
					got = append(got, roundObs{res.Detected, res.BALost, res.BitErrors, res.RxBits})
					env.Advance(0.05)
				}
				return got, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if si == 0 {
				ref = got
				continue
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("profile %q: scheme %q saw a different channel than %q — scheme leaked into the seed tree",
					prof.Name, scheme, CodingSchemes[0])
			}
		}
		if fmt.Sprint(ref) == "" {
			t.Fatal("no rounds observed")
		}
	}
}

// addStats adds every int and bool field of the struct v, embedded
// structs included, into sums (a true bool counts 1).
func addStats(v reflect.Value, sums map[string]int64) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch fv.Kind() {
		case reflect.Struct:
			if f.Anonymous {
				addStats(fv, sums)
			}
		case reflect.Int:
			sums[f.Name] += fv.Int()
		case reflect.Bool:
			if fv.Bool() {
				sums[f.Name]++
			}
		}
	}
}

// TestCodingStatsMatchCounters runs a reduced coding sweep one scheme at
// a time, each transfer in the world codingWorld builds for the sweep, and
// checks that every Stats total over the sweep equals the counter its
// transferer flushes into the campaign: no event is counted twice or
// missed.
func TestCodingStatsMatchCounters(t *testing.T) {
	coded := map[string]string{ // Stats field → counter
		"Delivered": "coding.transfers_delivered", "FramesSent": "coding.frames_sent",
		"FrameErasures": "coding.frame_erasures", "FrameErrors": "coding.frame_errors",
		"DecodeAttempts": "coding.decode_attempts", "ParityResizes": "coding.parity_resizes",
	}
	counters := map[string]map[string]string{
		"arq": {
			"Delivered": "link.transfers_delivered", "FramesSent": "link.segments_sent",
			"Retries": "link.retries", "RoundFailures": "link.round_failures",
			"DesyncErrors": "link.desync_errors", "ResidualErrors": "link.residual_errors",
			"CorrectedBits": "link.corrected_bits",
		},
		"fountain": coded,
		"rs":       coded,
	}
	cfg := DefaultAdaptiveCodingConfig()
	cfg.Transfers = 8
	for _, scheme := range CodingSchemes {
		camp := obs.NewCampaign(scheme, obs.CampaignOptions{})
		sums := map[string]int64{}
		n := 0
		for _, prof := range cfg.Profiles {
			for tr := 0; tr < cfg.Transfers; tr++ {
				payload := stats.SeededBytes(codingSeed(cfg.Seed, prof.Name, tr, "payload"), cfg.PayloadBytes)
				xfer := codingSeed(cfg.Seed, prof.Name, tr, "xfer")
				st, err := sim.InWorld(codingWorldTrial(cfg, prof, scheme, n, tr), camp.Observer, func(sys *core.System, env *channel.Environment) (any, error) {
					switch scheme {
					case "arq":
						cc, err := link.NewCodingController(0)
						if err != nil {
							return nil, err
						}
						return link.NewTransferer(sys, env, link.DefaultPolicy(), cc, xfer).Send(context.Background(), payload)
					case "fountain":
						return coding.NewFountainTransferer(sys, env, coding.DefaultFountainConfig(), xfer).Send(context.Background(), payload)
					default:
						return coding.NewRSTransferer(sys, env, coding.DefaultRSConfig(), xfer).Send(context.Background(), payload)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				addStats(reflect.ValueOf(st).Elem(), sums)
				n++
			}
		}
		got := camp.Registry.Snapshot().Deterministic().Counters
		prefix := "coding."
		if scheme == "arq" {
			prefix = "link."
		}
		if got[prefix+"transfers_started"] != int64(n) || got[prefix+"transfers_failed"] != int64(n)-sums["Delivered"] {
			t.Errorf("%s: %d transfers, %d delivered; counters started=%d failed=%d", scheme, n, sums["Delivered"],
				got[prefix+"transfers_started"], got[prefix+"transfers_failed"])
		}
		for field, counter := range counters[scheme] {
			if got[counter] != sums[field] {
				t.Errorf("%s: Stats.%s totals %d over the sweep, counter %s = %d", scheme, field, sums[field], counter, got[counter])
			}
		}
	}
}

// TestCodingTrialOrderBijection: the blocked trial order visits every
// (profile, scheme, transfer) exactly once, whatever the transfer count —
// a whole number of blocks, a partial last block, or less than one — and
// keeps each block's trials of one world within one block of each other.
func TestCodingTrialOrderBijection(t *testing.T) {
	const profiles = 2
	for _, transfers := range []int{1, 7, 8, 9, 60, 61} {
		for schemes := 1; schemes <= 3; schemes++ {
			n := profiles * schemes * transfers
			seen := make(map[[3]int]int, n)
			for i := range n {
				pi, si, tr := codingTrial(i, schemes, transfers)
				if pi < 0 || pi >= profiles || si < 0 || si >= schemes || tr < 0 || tr >= transfers {
					t.Fatalf("T=%d S=%d: trial %d maps to (%d, %d, %d), out of range", transfers, schemes, i, pi, si, tr)
				}
				key := [3]int{pi, si, tr}
				if j, dup := seen[key]; dup {
					t.Fatalf("T=%d S=%d: trials %d and %d both map to %v", transfers, schemes, j, i, key)
				}
				seen[key] = i
				if first, ok := seen[[3]int{pi, 0, tr}]; ok && i-first >= schemes*pairBlock {
					t.Errorf("T=%d S=%d: world (%d, %d) runs scheme %d %d trials after scheme 0", transfers, schemes, pi, tr, si, i-first)
				}
			}
			if len(seen) != n {
				t.Fatalf("T=%d S=%d: %d distinct coordinates for %d trials", transfers, schemes, len(seen), n)
			}
		}
	}
	// The first block of the default sweep: arq over worlds 0–7, then
	// fountain over the same worlds.
	for i, want := range [][3]int{{0, 0, 0}, {0, 0, 7}, {0, 1, 0}, {0, 2, 7}, {0, 0, 8}} {
		idx := []int{0, 7, 8, 23, 24}[i]
		if pi, si, tr := codingTrial(idx, 3, 60); [3]int{pi, si, tr} != want {
			t.Errorf("trial %d maps to (%d, %d, %d), want %v", idx, pi, si, tr, want)
		}
	}
}

// TestCodingTapesMatchLocalLinks runs a reduced sweep with every paired
// world taped and without tapes, and requires every transfer's outcome,
// every fault and traffic counter and each transfer's trace, in order and
// with wall times masked, to be identical: the tape changes who evaluates
// a world's link and draws its faults and traffic, never what a transfer
// sees, counts or traces. Every transfer must release the tape it took.
func TestCodingTapesMatchLocalLinks(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	cfg.Transfers, cfg.Workers = 10, manyWorkers()
	sweep := func(tapes *tapeSet) ([]TransferOutcome, *obs.Campaign) {
		t.Helper()
		c := cfg
		c.Campaign = obs.NewCampaign("tapes", obs.CampaignOptions{TraceCap: 1 << 17})
		out, err := codingTrials(context.Background(), c, CodingSchemes, tapes)
		if err != nil {
			t.Fatal(err)
		}
		if d := c.Campaign.Trace.Dropped(); d != 0 {
			t.Fatalf("trace ring dropped %d events", d)
		}
		return out, c.Campaign
	}
	local, localCamp := sweep(nil)
	tapes := newTapeSet(len(CodingSchemes))
	taped, tapedCamp := sweep(tapes)
	if !reflect.DeepEqual(local, taped) {
		t.Fatal("taped worlds changed a transfer's outcome")
	}
	w, g := localCamp.Registry.Snapshot().Counters, tapedCamp.Registry.Snapshot().Counters
	for _, c := range []string{"fault.subframes_lost", "fault.trigger_misses", "fault.ba_losses", "fault.brownouts",
		"traffic.rounds", "traffic.bursts", "traffic.subframes_masked", "traffic.state_switches"} {
		if w[c] == 0 || g[c] != w[c] {
			t.Errorf("%s: taped sweep counted %d, local %d", c, g[c], w[c])
		}
	}
	// Trials run concurrently, so only each trial's own events have an
	// order: key them by trace identity.
	events := func(c *obs.Campaign) map[string][]obs.Event {
		m := map[string][]obs.Event{}
		for _, e := range c.Trace.Events() {
			k := fmt.Sprint(e.Trial, e.Labels)
			m[k] = append(m[k], e)
		}
		return m
	}
	if we, ge := events(localCamp), events(tapedCamp); !reflect.DeepEqual(we, ge) {
		t.Errorf("taped sweep traced %d trials, local %d: some trial's events differ", len(ge), len(we))
	}
	if len(tapes.tapes) != 0 {
		t.Fatalf("%d tapes still held after the sweep", len(tapes.tapes))
	}
	if newTapeSet(1) != nil {
		t.Fatal("a single-scheme sweep made a tape set")
	}
}

// TestPairedWorldReadersShareLayers: every transfer of a paired world
// borrows the world's one environment, fault injector and traffic
// generator from its tape. A transfer's build returns no environment for
// sim.InWorld to release, and every reader's Env, Faults and Traffic are
// the first reader's, which is the world's one build.
func TestPairedWorldReadersShareLayers(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	prof := cfg.Profiles[1]
	w := newPairedWorld(cfg, prof, 3)
	defer w.tape.Release()
	var first *core.System
	for i, scheme := range CodingSchemes {
		sys, env, err := w.build()
		if err != nil {
			t.Fatal(err)
		}
		if env != nil || sys.Link != w.tape || sys.Faults == nil || sys.Traffic == nil {
			t.Fatalf("%s: env %p, link %p (tape %p), faults %p, traffic %p", scheme, env, sys.Link, w.tape, sys.Faults, sys.Traffic)
		}
		if i == 0 {
			first = sys
		} else if sys.Env != first.Env || sys.Faults != first.Faults || sys.Traffic != first.Traffic {
			t.Fatalf("%s: the reader's layers are not the world's", scheme)
		}
		defer sys.Release()
	}
	if want := stats.SeededBytes(codingSeed(cfg.Seed, prof.Name, 3, "payload"), cfg.PayloadBytes); !slices.Equal(w.payload, want) {
		t.Fatal("the world's payload is not its seeded draw")
	}
}

// TestTapedTransferNeverDraws locks in that a transfer reading its world
// from a tape never draws from the world's fault or traffic stream
// itself, though it counts the world's events: each scheme's taped
// transfer must tally the faults (System.Injected) and count the fault and
// traffic events that the same transfer over a local world does, and
// after it the world's injector and generator, which the tape drew once
// for each round it recorded, must draw exactly what fresh ones from the
// same seeds draw after as many rounds.
func TestTapedTransferNeverDraws(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	prof := cfg.Profiles[1]
	if prof.Fault == "" || prof.Traffic == "" {
		t.Fatalf("profile %q lacks faults or traffic", prof.Name)
	}
	const tr = 3
	build := codingWorldTrial(cfg, prof, "", -1, tr).Build
	payload := stats.SeededBytes(codingSeed(cfg.Seed, prof.Name, tr, "payload"), cfg.PayloadBytes)
	xfer := codingSeed(cfg.Seed, prof.Name, tr, "xfer")
	// The worlds outlive the transfers, so the test builds and
	// instruments them itself: the reader's streams are drawn afterwards.
	world := func(o *obs.Observer) (*core.System, *channel.Environment) {
		t.Helper()
		sys, env, err := build()
		if err != nil {
			t.Fatal(err)
		}
		sys.Instrument(o, 0, "")
		return sys, env
	}
	counted := func(o *obs.Observer) map[string]int64 {
		m := map[string]int64{}
		for name, v := range o.Registry.Snapshot().Counters {
			if strings.HasPrefix(name, "fault.") || strings.HasPrefix(name, "traffic.") {
				m[name] = v
			}
		}
		return m
	}
	for _, scheme := range CodingSchemes {
		lo := obs.NewObserver(nil, nil)
		local, env := world(lo)
		want, err := RunTransfer(context.Background(), scheme, local, env, payload, xfer)
		if err != nil {
			t.Fatal(err)
		}
		ro := obs.NewObserver(nil, nil)
		sys, err := core.NewLinkTape(build).Reader(nil) // the first reader is the build itself
		if err != nil {
			t.Fatal(err)
		}
		sys.Instrument(ro, 0, "")
		out, err := RunTransfer(context.Background(), scheme, sys, nil, payload, xfer)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rounds == 0 || sys.Injected.SubframesLost == 0 {
			t.Fatalf("%s: %d rounds, %d subframes lost: the transfer saw no faults", scheme, out.Rounds, sys.Injected.SubframesLost)
		}
		if !reflect.DeepEqual(out, want) || sys.Injected != local.Injected {
			t.Fatalf("%s: the taped transfer gave %+v and tallied %+v, a local one %+v and %+v", scheme, out, sys.Injected, want, local.Injected)
		}
		if g, w := counted(ro), counted(lo); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: the taped transfer counted %v, a local one %v", scheme, g, w)
		}
		fresh, _ := world(nil)
		// The tape's rounds, drawn in the hooks' order (core.System.Faults).
		data, total := fresh.Spec.DataLen, fresh.Spec.TriggerLen+fresh.Spec.DataLen
		for range out.Rounds {
			fresh.Faults.TriggerMissed()
			fresh.Faults.BrownoutWindow(data)
			for range total {
				fresh.Faults.SubframeLost()
			}
			fresh.Faults.BALost()
			fresh.Traffic.RoundMask(total)
		}
		for r := range 100 {
			type draw struct {
				miss, ba      bool
				start, length int
				lost          [64]bool
				mask          []bool
				traffic       *traffic.Generator // compared deeply: chain state and stream
			}
			var d [2]draw
			for i, s := range []*core.System{sys, fresh} {
				d[i].miss = s.Faults.TriggerMissed()
				d[i].start, d[i].length, _ = s.Faults.BrownoutWindow(60)
				for k := range d[i].lost {
					d[i].lost[k] = s.Faults.SubframeLost()
				}
				d[i].ba = s.Faults.BALost()
				mask, _ := s.Traffic.RoundMask(64)
				d[i].mask = slices.Clone(mask)
				d[i].traffic = s.Traffic
			}
			if !reflect.DeepEqual(d[0], d[1]) {
				t.Fatalf("%s: round %d after the transfer, the world drew %+v, a fresh one %+v: the transfer drew from the world's streams", scheme, r, d[0], d[1])
			}
		}
	}
}

// TestCodingTapesReleasedOnCancel cancels the sweep while it runs: every
// transfer that started, cancelled ones included, must have given its
// world's tape back, so each tape still held waits only for transfers
// that never started.
func TestCodingTapesReleasedOnCancel(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	cfg.Transfers, cfg.Workers = 10, 2
	ctx, cancel := context.WithCancel(context.Background())
	camp := obs.NewCampaign("cancel", obs.CampaignOptions{TraceCap: 1 << 17})
	cfg.Campaign = camp
	tapes := newTapeSet(len(CodingSchemes))
	done := make(chan error, 1)
	go func() {
		_, err := codingTrials(ctx, cfg, CodingSchemes, tapes)
		done <- err
	}()
	for camp.Registry.Snapshot().Counters["core.rounds"] < 500 {
		select {
		case err := <-done:
			t.Fatalf("sweep returned %v before it was cancelled", err)
		default:
			runtime.Gosched()
		}
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	// Every transfer that started records its own "transfer" event on
	// each exit path, cancellation included.
	started := map[int]int{} // world → transfers started
	n := 0
	for _, e := range camp.Trace.Events() {
		if e.Kind == "transfer" {
			pi, _, tr := codingTrial(e.Trial, len(CodingSchemes), cfg.Transfers)
			started[pi*cfg.Transfers+tr]++
			n++
		}
	}
	if n == 0 || n == len(cfg.Profiles)*len(CodingSchemes)*cfg.Transfers {
		t.Fatalf("%d transfers started: the sweep was not cancelled midway", n)
	}
	if d := camp.Trace.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	for world, k := range started {
		want := len(CodingSchemes) - k
		if got := tapes.tapes[world]; (want == 0) != (got == nil) || (got != nil && got.left != want) {
			t.Errorf("world %d: %d transfers started, tape %+v", world, k, got)
		}
	}
	if len(tapes.tapes) > len(started) {
		t.Errorf("%d tapes held for %d worlds started", len(tapes.tapes), len(started))
	}
}

// codingWorldTrial is trial traceID of the sweep, the (profile, tr)
// world under scheme, with no tape: the whole world built. The scheme enters only the trace labels
// ("coding/pf=…/tr=…/scheme=…"), never the seed tree.
func codingWorldTrial(cfg AdaptiveCodingConfig, prof CodingProfile, scheme string, traceID, tr int) sim.Trial {
	return sim.Trial{
		Build:  codingWorldBuild(cfg, prof, tr),
		ID:     traceID,
		Labels: codingLabels(prof, scheme, tr),
	}
}
