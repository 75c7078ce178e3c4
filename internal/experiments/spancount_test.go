package experiments

import (
	"context"
	"testing"

	"witag/internal/obs"
	"witag/internal/sim"
)

// TestSpanCountsExact pins how many spans each phase records. Counts are
// what PROF's per-phase "count" reports and what the wall-share of a phase
// is averaged over, so timing changes — one clock read per boundary, laned
// histograms — must keep them exact at every worker count. Every analytic
// round records one encode, channel, equalise, viterbi and crc span, plus
// one channel span for the Advance before it — the first round of a trial
// or of a sim.Stream included (the FEC ablation streams its frames) —
// except on the coding sweep, whose rounds read their whole link from the
// world's tape: the tape advances its own environment inside the round's
// channel region and records no span, so those rounds record one channel
// span and no equalise span. Every transfer round adds one arq_round
// span, and every backoff one more. Every frame whose rounds all
// completed records one deinterleave span, the frame codec's, whatever
// its interleave depth: the frames sent less the frames erased. The
// coding decode count is the value the sweep recorded before spans were
// laned, and the deinterleave count the one it recorded when the frame
// sender first timed the codec's deinterleave. The coding encode count
// was 2,059 until RS parity was computed a shard at a time, as the waves
// send it, with one span per shard instead of one per block.
func TestSpanCountsExact(t *testing.T) {
	type want struct{ deinterleave, codingEncode, codingDecode int64 }
	runs := []struct {
		name string
		run  func(workers int, c *obs.Campaign) error
		want want
	}{
		{"fig5", func(w int, c *obs.Campaign) error {
			_, err := Figure5Ctx(context.Background(), Figure5Config{Seed: 42, Runs: 2, Round: 40, Workers: w, Campaign: c})
			return err
		}, want{}},
		{"fig6", func(w int, c *obs.Campaign) error {
			_, err := Figure6Ctx(context.Background(), LocationB, Figure6Config{Seed: 7, Runs: 4, Round: 40, Workers: w, Campaign: c})
			return err
		}, want{}},
		{"ablation-fec", func(w int, c *obs.Campaign) error {
			_, err := runAblation(context.Background(), sim.Runner{Workers: w, Campaign: c}, "fec", 42, 6)
			return err
		}, want{}},
		{"coding", func(w int, c *obs.Campaign) error {
			cfg := DefaultAdaptiveCodingConfig()
			cfg.Transfers, cfg.Workers, cfg.Campaign = 2, w, c
			_, err := AdaptiveCodingCtx(context.Background(), cfg)
			return err
		}, want{deinterleave: 1271, codingEncode: 2450, codingDecode: 1351}},
	}
	for _, r := range runs {
		for _, workers := range []int{1, 2} {
			camp := obs.NewCampaign(r.name, obs.CampaignOptions{})
			if err := r.run(workers, camp); err != nil {
				t.Fatal(err)
			}
			snap := camp.Registry.Snapshot()
			count := func(p obs.Phase) int64 { return snap.Histograms[obs.SpanName(p)].Count }
			rounds := snap.Counters["core.rounds"]
			if rounds == 0 {
				t.Fatalf("%s: no rounds ran", r.name)
			}
			transferRounds, channel, equalise := int64(0), 2*rounds, rounds
			if r.name == "coding" {
				transferRounds = rounds + snap.Counters["link.backoff_waits"]
				channel, equalise = rounds, 0
				c := snap.Counters
				decoded := c["link.segments_sent"] - c["link.round_failures"] + c["coding.frames_sent"] - c["coding.frame_erasures"]
				if decoded != r.want.deinterleave {
					t.Errorf("coding at %d workers: %d frames decoded, want %d", workers, decoded, r.want.deinterleave)
				}
			}
			for _, c := range []struct {
				p    obs.Phase
				want int64
			}{
				{obs.PhaseEncode, rounds},
				{obs.PhaseChannel, channel},
				{obs.PhaseEqualise, equalise},
				{obs.PhaseDeinterleave, r.want.deinterleave},
				{obs.PhaseViterbi, rounds},
				{obs.PhaseCRC, rounds},
				{obs.PhaseARQRound, transferRounds},
				{obs.PhaseCodingEncode, r.want.codingEncode},
				{obs.PhaseCodingDecode, r.want.codingDecode},
			} {
				if got := count(c.p); got != c.want {
					t.Errorf("%s at %d workers: %s count %d, want %d (%d rounds)", r.name, workers, c.p, got, c.want, rounds)
				}
			}
		}
	}
}
