package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"witag/internal/channel"
	"witag/internal/coding"
	"witag/internal/core"
	"witag/internal/fault"
	"witag/internal/link"
	"witag/internal/obs"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/traffic"
)

// AdaptiveCoding: the reliability-scheme shoot-out the related work calls
// for. Three transfer schemes — selective-repeat ARQ with the AIMD coding
// ladder (ours), an LT-style fountain code (FlexScatter's rateless
// approach) and adaptive Reed-Solomon blocks (GuardRider's
// loss-statistics-sized parity) — each move the same payload over the
// same labeled worlds under composed fault (Gilbert–Elliott interference)
// and traffic (MMPP ambient load) profiles. Reported per (profile,
// scheme): completion probability, goodput, airtime overhead and a
// tag-energy proxy. The scheme deliberately never enters the seed tree,
// only the trace label path, so the comparison isolates the scheme.

// CodingSchemes names the compared transfer schemes, in sweep order.
var CodingSchemes = []string{"arq", "fountain", "rs"}

// KnownCodingScheme reports whether name is a valid scheme selector.
func KnownCodingScheme(name string) bool {
	for _, s := range CodingSchemes {
		if s == name {
			return true
		}
	}
	return false
}

// CodingProfile is one swept channel condition: a fault preset composed
// with an ambient-traffic preset. Empty names disable that layer.
type CodingProfile struct {
	Name    string
	Fault   string // fault.Named preset; "" = no injector
	Traffic string // traffic.Named preset; "" = no ambient load
	// Bursty marks the profiles where the acceptance claim (coded schemes
	// beat ARQ on goodput or overhead) is asserted.
	Bursty bool
}

// AdaptiveCodingConfig parameterises the sweep.
type AdaptiveCodingConfig struct {
	Seed         int64
	PayloadBytes int // transfer size (default 96)
	Transfers    int // independent transfers per (profile, scheme)
	Workers      int // concurrent trial workers; <= 0 means runtime.NumCPU()
	// Campaign, when non-nil, instruments the sweep (nil: off).
	Campaign *obs.Campaign
	Profiles []CodingProfile
	// Schemes restricts the sweep to a subset of CodingSchemes (the CLI's
	// -transfer flag). Empty means all of them; note ShapeChecks asserts
	// the full three-scheme comparison, so subsets are for exploration,
	// not gating.
	Schemes []string
}

// DefaultAdaptiveCodingConfig is the witag-bench scale: four composed
// profiles from near-idle to hostile.
func DefaultAdaptiveCodingConfig() AdaptiveCodingConfig {
	return AdaptiveCodingConfig{
		Seed:         47,
		PayloadBytes: 96,
		Transfers:    60,
		Profiles: []CodingProfile{
			{Name: "quiet", Fault: "calm", Traffic: "quiet"},
			{Name: "office", Fault: "bursty", Traffic: "office", Bursty: true},
			{Name: "download", Fault: "bursty", Traffic: "download", Bursty: true},
			{Name: "saturated", Fault: "bursty", Traffic: "saturated", Bursty: true},
		},
	}
}

// CodingCell is one (profile, scheme) aggregate.
type CodingCell struct {
	Scheme   string
	Delivery float64 // fraction of transfers completed
	// GoodputKbps is mean payload bits / airtime over delivered transfers.
	GoodputKbps float64
	// OverheadRatio is mean on-air subframe-bits per payload bit:
	// rounds·DataLen / (8·payloadBytes). 1.0 would be a perfect single
	// pass with zero redundancy; ARQ retransmissions, fountain overhead
	// symbols and RS parity all land here.
	OverheadRatio float64
	// EnergySlots is the tag-energy proxy: mean subframe slots the tag
	// spends awake and switching, rounds × Spec.Total().
	EnergySlots float64
	MeanRounds  float64
	// Scheme-specific means: ARQ retries / fountain symbols / RS shards
	// per transfer, decode attempts, and RS parity resize events.
	MeanFrames     float64
	DecodeAttempts float64
	ParityResizes  float64
}

// CodingPoint is one profile's row of scheme cells.
type CodingPoint struct {
	Profile CodingProfile
	Cells   []CodingCell // indexed like CodingSchemes
}

// AdaptiveCodingResult is the whole sweep.
type AdaptiveCodingResult struct {
	PayloadBytes int
	Transfers    int
	Points       []CodingPoint
}

// TransferOutcome is one transfer's result under any scheme: the stats
// every scheme shares (FramesSent counts ARQ frame attempts, fountain
// symbols or RS shards) plus the coded schemes' decode attempts and parity
// resizes, which stay 0 for a scheme without that step.
type TransferOutcome struct {
	link.TransferStats
	DecodeAttempts int
	ParityResizes  int
}

// RunTransfer moves payload over one deployment with the named scheme
// from CodingSchemes — arq (selective-repeat ARQ on the adaptive coding
// ladder), fountain (LT) or rs (adaptive Reed-Solomon) — each at its
// default operating point, with the transferer seeded from seed. The
// transferer is RunTransfer's own, so it releases its backoff stream.
func RunTransfer(ctx context.Context, scheme string, sys *core.System, env *channel.Environment, payload []byte, seed int64) (TransferOutcome, error) {
	var out TransferOutcome
	switch scheme {
	case "arq":
		cc, err := link.NewCodingController(0)
		if err != nil {
			return out, err
		}
		x := link.NewTransferer(sys, env, link.DefaultPolicy(), cc, seed)
		defer x.Release()
		s, err := x.Send(ctx, payload)
		if err != nil {
			return out, err
		}
		out.TransferStats = s.TransferStats
	case "fountain", "rs":
		var x interface {
			Send(context.Context, []byte) (*coding.Stats, error)
			Release()
		}
		if scheme == "fountain" {
			x = coding.NewFountainTransferer(sys, env, coding.DefaultFountainConfig(), seed)
		} else {
			x = coding.NewRSTransferer(sys, env, coding.DefaultRSConfig(), seed)
		}
		defer x.Release()
		s, err := x.Send(ctx, payload)
		if err != nil {
			return out, err
		}
		out = TransferOutcome{s.TransferStats, s.DecodeAttempts, s.ParityResizes}
	default:
		return out, fmt.Errorf("experiments: unknown coding scheme %q (valid: %s)", scheme, strings.Join(CodingSchemes, ", "))
	}
	return out, nil
}

// AdaptiveCodingCtx runs the sweep, with cancellation.
func AdaptiveCodingCtx(ctx context.Context, cfg AdaptiveCodingConfig) (*AdaptiveCodingResult, error) {
	if cfg.PayloadBytes < 1 || cfg.PayloadBytes > link.MaxTransfer {
		return nil, fmt.Errorf("experiments: payload %d bytes outside [1,%d]", cfg.PayloadBytes, link.MaxTransfer)
	}
	if cfg.Transfers < 1 || len(cfg.Profiles) == 0 {
		return nil, fmt.Errorf("experiments: need ≥1 transfer and ≥1 profile")
	}
	schemeNames := cfg.Schemes
	if len(schemeNames) == 0 {
		schemeNames = CodingSchemes
	}
	seen := map[string]bool{}
	for _, s := range schemeNames {
		if !KnownCodingScheme(s) {
			return nil, fmt.Errorf("experiments: unknown coding scheme %q (valid: %s)", s, strings.Join(CodingSchemes, ", "))
		}
		if seen[s] {
			return nil, fmt.Errorf("experiments: scheme %q listed twice", s)
		}
		seen[s] = true
	}
	// Validate every profile name up front — no partial sweeps.
	for _, p := range cfg.Profiles {
		if p.Fault != "" {
			if _, err := fault.Named(p.Fault); err != nil {
				return nil, err
			}
		}
		if p.Traffic != "" {
			if _, err := traffic.Named(p.Traffic); err != nil {
				return nil, err
			}
		}
	}
	perProfile := len(schemeNames) * cfg.Transfers

	// Overhead and energy need the spec's subframe counts. Every testbed
	// keeps the default spec's, since shaping only sizes the subframes.
	spec := core.DefaultQuerySpec()
	slots := spec.Total()
	dataLen := float64(spec.DataLen)
	payloadBits := float64(8 * cfg.PayloadBytes)

	trials, err := codingTrials(ctx, cfg, schemeNames, newTapeSet(len(schemeNames)))
	if err != nil {
		return nil, err
	}

	res := &AdaptiveCodingResult{PayloadBytes: cfg.PayloadBytes, Transfers: cfg.Transfers}
	for pi, prof := range cfg.Profiles {
		pt := CodingPoint{Profile: prof}
		for si, scheme := range schemeNames {
			cell := CodingCell{Scheme: scheme}
			var goodput float64
			delivered := 0
			for tr := 0; tr < cfg.Transfers; tr++ {
				t := trials[pi*perProfile+si*cfg.Transfers+tr]
				if t.Delivered {
					delivered++
					goodput += t.GoodputBps()
				}
				cell.MeanRounds += float64(t.Rounds)
				cell.MeanFrames += float64(t.FramesSent)
				cell.DecodeAttempts += float64(t.DecodeAttempts)
				cell.ParityResizes += float64(t.ParityResizes)
				cell.EnergySlots += float64(t.Rounds * slots)
			}
			nT := float64(cfg.Transfers)
			cell.Delivery = float64(delivered) / nT
			if delivered > 0 {
				cell.GoodputKbps = goodput / float64(delivered) / 1000
			}
			cell.MeanRounds /= nT
			cell.MeanFrames /= nT
			cell.DecodeAttempts /= nT
			cell.ParityResizes /= nT
			cell.EnergySlots /= nT
			cell.OverheadRatio = cell.MeanRounds * dataLen / payloadBits
			pt.Cells = append(pt.Cells, cell)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// pairBlock is how many paired worlds of a profile the sweep runs under
// one scheme before it moves to the next: trials go arq ×8, fountain ×8,
// rs ×8, then the next eight worlds. A world's three trials therefore run
// within about 24 trials of each other, so its link tape lives that long
// rather than a whole profile's 120 trials, yet two of them seldom run at
// the same moment and wait on the tape's lock.
const pairBlock = 8

// codingTrial maps the sweep's trial index i onto its (profile, scheme,
// transfer) coordinates under the blocked order, for a sweep of schemes
// schemes and transfers transfers per profile. The order depends on the
// configuration alone, never on the worker count.
func codingTrial(i, schemes, transfers int) (pi, si, tr int) {
	perProfile := schemes * transfers
	pi, j := i/perProfile, i%perProfile
	lo := j / (schemes * pairBlock) * pairBlock // the block's first world
	w := min(pairBlock, transfers-lo)           // worlds in the block
	k := j - schemes*lo
	return pi, k / w, lo + k%w
}

// codingTrials runs every transfer of the sweep in the blocked order and
// returns the outcomes scheme-major — profile, then scheme, then transfer
// — the layout the aggregation reads. The trace ID of each transfer is its
// index in the run order. Every paired world comes from worlds (nil: each
// transfer builds its own), released when each of its transfers returns.
func codingTrials(ctx context.Context, cfg AdaptiveCodingConfig, schemeNames []string, worlds *tapeSet) ([]TransferOutcome, error) {
	nS := len(schemeNames)
	perProfile := nS * cfg.Transfers
	o := cfg.Campaign.ObserverRef()
	out := make([]TransferOutcome, len(cfg.Profiles)*perProfile)
	err := sim.Runner{Workers: cfg.Workers, Campaign: cfg.Campaign}.Each(ctx, len(out), func(ctx context.Context, i int) error {
		pi, si, tr := codingTrial(i, nS, cfg.Transfers)
		prof := cfg.Profiles[pi]
		var w *pairedWorld
		if worlds != nil {
			world := pi*cfg.Transfers + tr
			w = worlds.acquire(world, cfg, prof, tr)
			defer worlds.release(world)
		}
		t, err := codingTransfer(ctx, cfg, prof, schemeNames[si], i, tr, o, w)
		if err != nil {
			return err
		}
		out[pi*perProfile+si*cfg.Transfers+tr] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// tapeSet hands out one pairedWorld per paired world of a sweep. A world
// is made when the first of its transfers asks for it and is dropped when
// the last of them — one per scheme — releases it.
type tapeSet struct {
	mu      sync.Mutex
	schemes int
	tapes   map[int]*pairedWorld
}

// pairedWorld is what the transfers of one paired world share: the
// world's link tape, which owns its environment, fault injector and
// traffic generator, and its payload, drawn once.
type pairedWorld struct {
	tape *core.LinkTape
	// build is the sim.Trial.Build of a transfer over the world: a
	// reader of tape (core.LinkTape.Reader), with no environment of its
	// own to release.
	build   func() (*core.System, *channel.Environment, error)
	payload []byte
	left    int // transfers of the world still to release it
}

// newPairedWorld returns the sweep's (prof, tr) world, whose tape runs
// codingWorldBuild once and whose other readers build only the testbed's
// system over the tape's environment, from the same seed.
func newPairedWorld(cfg AdaptiveCodingConfig, prof CodingProfile, tr int) *pairedWorld {
	tape := core.NewLinkTape(codingWorldBuild(cfg, prof, tr))
	seed := codingSeed(cfg.Seed, prof.Name, tr, "env")
	reader := func(env *channel.Environment) (*core.System, error) { return losSystem(env, codingTagX, seed) }
	return &pairedWorld{
		tape: tape,
		build: func() (*core.System, *channel.Environment, error) {
			sys, err := tape.Reader(reader)
			return sys, nil, err
		},
		payload: stats.SeededBytes(codingSeed(cfg.Seed, prof.Name, tr, "payload"), cfg.PayloadBytes),
	}
}

// newTapeSet returns the worlds of a sweep over schemes schemes, or nil
// when there is a single scheme and so nothing to share.
func newTapeSet(schemes int) *tapeSet {
	if schemes < 2 {
		return nil
	}
	return &tapeSet{schemes: schemes, tapes: map[int]*pairedWorld{}}
}

// acquire returns world, the sweep's (prof, tr) world, making it if it
// has not been made yet.
func (s *tapeSet) acquire(world int, cfg AdaptiveCodingConfig, prof CodingProfile, tr int) *pairedWorld {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.tapes[world]
	if w == nil {
		w = newPairedWorld(cfg, prof, tr)
		w.left = s.schemes
		s.tapes[world] = w
	}
	return w
}

// release gives world back, releasing its tape (core.LinkTape.Release)
// after its last transfer.
func (s *tapeSet) release(world int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.tapes[world]
	if w.left--; w.left == 0 {
		delete(s.tapes, world)
		w.tape.Release()
	}
}

// codingTransfer runs exactly one transfer of the sweep: the paired world
// identified by (profile, tr) under the given scheme, in the world
// sim.InWorld builds and releases when the transfer returns. Every scheme
// sees the same labeled world — environment, fault stream, traffic
// stream, payload, and even the transferer seed (leaf "xfer") — so the
// comparison isolates the scheme. Without w the transfer builds the whole
// world (codingWorldBuild) and draws the payload itself. With w it reads
// the world's link and draws from w's tape, borrows the world's layers
// from it, builds only its own system and transferer, and sends w's
// payload; the transferer gets no environment to advance.
func codingTransfer(ctx context.Context, cfg AdaptiveCodingConfig, prof CodingProfile, scheme string, traceID, tr int, o *obs.Observer, w *pairedWorld) (TransferOutcome, error) {
	t := sim.Trial{ID: traceID, Labels: codingLabels(prof, scheme, tr)}
	var payload []byte
	if w != nil {
		t.Build, payload = w.build, w.payload
	} else {
		t.Build = codingWorldBuild(cfg, prof, tr)
		payload = stats.SeededBytes(codingSeed(cfg.Seed, prof.Name, tr, "payload"), cfg.PayloadBytes)
	}
	return sim.InWorld(t, o, func(sys *core.System, env *channel.Environment) (TransferOutcome, error) {
		out, err := RunTransfer(ctx, scheme, sys, env, payload, codingSeed(cfg.Seed, prof.Name, tr, "xfer"))
		if err == nil && out.Delivered && !bytes.Equal(out.Received, payload) {
			err = fmt.Errorf("experiments: %s delivered a corrupted payload at pf=%s tr=%d", scheme, prof.Name, tr)
		}
		return out, err
	})
}

// codingSeed derives the seed of one leaf of the world of profile and
// transfer tr, under the sweep's root seed.
func codingSeed(root int64, profile string, tr int, leaf string) int64 {
	return stats.SubSeed(root, "coding", "pf="+profile, "tr="+strconv.Itoa(tr), leaf)
}

// codingLabels is the trace label path of the (profile, tr) world under
// scheme. The scheme enters only the labels, never the seed tree.
func codingLabels(prof CodingProfile, scheme string, tr int) string {
	return "coding/pf=" + prof.Name + "/tr=" + strconv.Itoa(tr) + "/scheme=" + scheme
}

// codingTagX is where every world of the sweep puts the tag, in metres
// from the client of the LoS testbed.
const codingTagX = 2

// codingWorldBuild builds the (profile, tr) world: testbed, fault
// injector and traffic generator, all seeded from the world path alone.
// Its closures keep the world's names and seed, not the whole
// configuration.
func codingWorldBuild(cfg AdaptiveCodingConfig, prof CodingProfile, tr int) func() (*core.System, *channel.Environment, error) {
	root, name, faultName, trafficName := cfg.Seed, prof.Name, prof.Fault, prof.Traffic
	seed := func(leaf string) int64 { return codingSeed(root, name, tr, leaf) }
	return losBuild(codingTagX, seed("env"), func(sys *core.System) error {
		return attachLayers(sys, faultName, trafficName, seed)
	})
}

// Render prints the sweep table.
func (r *AdaptiveCodingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive coding: %d-byte transfers, %d per profile×scheme (fault+traffic composed)\n",
		r.PayloadBytes, r.Transfers)
	fmt.Fprintf(&b, "%-11s %-9s %-9s %-13s %-10s %-9s %-9s %-8s %s\n",
		"Profile", "Scheme", "Delivery", "Goodput Kbps", "Overhead", "Rounds", "Frames", "Decodes", "Resizes")
	for _, pt := range r.Points {
		for _, c := range pt.Cells {
			fmt.Fprintf(&b, "%-11s %-9s %-9.2f %-13.2f %-10.1f %-9.1f %-9.1f %-8.1f %.1f\n",
				pt.Profile.Name, c.Scheme, c.Delivery, c.GoodputKbps,
				c.OverheadRatio, c.MeanRounds, c.MeanFrames, c.DecodeAttempts, c.ParityResizes)
		}
	}
	b.WriteString("overhead is on-air subframe-bits per payload bit; energy proxy = rounds × subframes/round\n")
	return b.String()
}

// cell returns the named scheme's cell of a point.
func (p *CodingPoint) cell(scheme string) *CodingCell {
	for i := range p.Cells {
		if p.Cells[i].Scheme == scheme {
			return &p.Cells[i]
		}
	}
	return nil
}

// ShapeChecks asserts the claims CI enforces: every profile ran all three
// schemes; everything delivers on the mild profile; and on at least one
// bursty profile fountain — and, separately, RS — beats plain ARQ on
// goodput or airtime overhead.
func (r *AdaptiveCodingResult) ShapeChecks() error {
	if len(r.Points) < 3 {
		return fmt.Errorf("experiments: coding sweep needs ≥3 profiles, got %d", len(r.Points))
	}
	bursty := 0
	for _, pt := range r.Points {
		if len(pt.Cells) != len(CodingSchemes) {
			return fmt.Errorf("experiments: profile %q ran %d schemes, want %d", pt.Profile.Name, len(pt.Cells), len(CodingSchemes))
		}
		for _, c := range pt.Cells {
			if c.Delivery <= 0 {
				return fmt.Errorf("experiments: scheme %q delivered nothing under profile %q", c.Scheme, pt.Profile.Name)
			}
		}
		if pt.Profile.Bursty {
			bursty++
		}
	}
	if bursty == 0 {
		return fmt.Errorf("experiments: no bursty profile in the sweep")
	}
	mild := r.Points[0]
	for _, c := range mild.Cells {
		if c.Delivery < 0.99 {
			return fmt.Errorf("experiments: scheme %q delivery %v under the mild profile %q", c.Scheme, c.Delivery, mild.Profile.Name)
		}
	}
	beats := func(coded string) bool {
		for _, pt := range r.Points {
			if !pt.Profile.Bursty {
				continue
			}
			arq, c := pt.cell("arq"), pt.cell(coded)
			if arq == nil || c == nil {
				return false
			}
			// A win only counts at comparable delivery.
			if c.Delivery+0.05 < arq.Delivery {
				continue
			}
			if c.GoodputKbps > arq.GoodputKbps || c.OverheadRatio < arq.OverheadRatio {
				return true
			}
		}
		return false
	}
	for _, coded := range []string{"fountain", "rs"} {
		if !beats(coded) {
			return fmt.Errorf("experiments: %s never beat ARQ on goodput or overhead in a bursty profile", coded)
		}
	}
	return nil
}
