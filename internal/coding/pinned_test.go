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
	"witag/internal/link"
	"witag/internal/obs"
	"witag/internal/stats"
)

// flattenStats renders every scalar field of a transfer's stats, embedded
// structs included, as name=value lines, so the pinned expectations below
// stay valid however the fields are grouped into structs. Byte slices
// (the received payload) are checked separately.
func flattenStats(v reflect.Value, out map[string]string) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch {
		case f.Anonymous && fv.Kind() == reflect.Struct:
			flattenStats(fv, out)
		case fv.Kind() == reflect.Slice:
		default:
			out[f.Name] = fmt.Sprint(fv.Interface())
		}
	}
}

// TestTransferOutcomesPinned drives every transfer discipline through one
// fixed burst-fault LoS world and asserts its full stats and its link.* /
// coding.* counters exactly. The regression gate compares science only
// within a tolerance, so this is what pins the frame loop itself: a
// reordered RNG draw, a backoff drawn after the final erasure, or a round
// counted twice changes a value here.
func TestTransferOutcomesPinned(t *testing.T) {
	p, err := fault.Named("bursty")
	if err != nil {
		t.Fatal(err)
	}
	p.LossBad = 0.9
	payload := stats.RandomBytes(stats.NewRNG(stats.SubSeed(33, "payload")), 96)
	type result struct {
		stats     any
		delivered bool
		received  []byte
	}
	cases := []struct {
		name string
		send func(sys *core.System, env *channel.Environment) (result, error)
		want string
	}{
		{"arq-adaptive", func(sys *core.System, env *channel.Environment) (result, error) {
			cc, err := link.NewCodingController(0)
			if err != nil {
				return result{}, err
			}
			st, err := link.NewTransferer(sys, env, link.DefaultPolicy(), cc, stats.SubSeed(33, "arq")).Send(context.Background(), payload)
			if err != nil {
				return result{}, err
			}
			return result{*st, st.Delivered, st.Received}, nil
		}, `Airtime=131.906784ms BackoffWait=2.491784ms CorrectedBits=23 Delivered=true DesyncErrors=0 FinalLevel=4 FramesSent=13 PayloadBytes=96 ResidualErrors=5 Retries=6 RoundFailures=1 Rounds=88 coding.decode_attempts=0 coding.frame_erasures=0 coding.frame_errors=0 coding.frames_sent=0 coding.parity_resizes=0 coding.shards_sent=0 coding.symbols_sent=0 coding.transfers_delivered=0 coding.transfers_failed=0 coding.transfers_started=0 link.backoff_waits=1 link.corrected_bits=23 link.desync_errors=0 link.ladder_down=0 link.ladder_up=4 link.residual_errors=5 link.retries=6 link.round_failures=1 link.segments_sent=13 link.transfers_delivered=1 link.transfers_failed=0 link.transfers_started=1`},
		{"arq-no-budget", func(sys *core.System, env *channel.Environment) (result, error) {
			pol := link.DefaultPolicy()
			pol.RetryBudget = 0
			cc := link.NewFixedController(link.DefaultLadder()[1])
			st, err := link.NewTransferer(sys, env, pol, cc, stats.SubSeed(33, "arq")).Send(context.Background(), payload)
			if err != nil {
				return result{}, err
			}
			return result{*st, st.Delivered, st.Received}, nil
		}, `Airtime=15.989ms BackoffWait=0s CorrectedBits=0 Delivered=false DesyncErrors=0 FinalLevel=0 FramesSent=1 PayloadBytes=96 ResidualErrors=1 Retries=0 RoundFailures=0 Rounds=11 coding.decode_attempts=0 coding.frame_erasures=0 coding.frame_errors=0 coding.frames_sent=0 coding.parity_resizes=0 coding.shards_sent=0 coding.symbols_sent=0 coding.transfers_delivered=0 coding.transfers_failed=0 coding.transfers_started=0 link.backoff_waits=0 link.corrected_bits=0 link.desync_errors=0 link.ladder_down=0 link.ladder_up=0 link.residual_errors=1 link.retries=0 link.round_failures=0 link.segments_sent=1 link.transfers_delivered=0 link.transfers_failed=1 link.transfers_started=1`},
		{"lt", func(sys *core.System, env *channel.Environment) (result, error) {
			st, err := NewFountainTransferer(sys, env, DefaultFountainConfig(), stats.SubSeed(33, "fountain")).Send(context.Background(), payload)
			if err != nil {
				return result{}, err
			}
			return result{*st, st.Delivered, st.Received}, nil
		}, `Airtime=117.935018ms BackoffWait=1.786018ms DecodeAttempts=11 Delivered=true FinalK=0 FinalN=0 FrameErasures=1 FrameErrors=6 FramesOK=9 FramesSent=16 ParityResizes=0 PayloadBytes=96 Rounds=79 coding.decode_attempts=11 coding.frame_erasures=1 coding.frame_errors=6 coding.frames_sent=16 coding.parity_resizes=0 coding.shards_sent=0 coding.symbols_sent=16 coding.transfers_delivered=1 coding.transfers_failed=0 coding.transfers_started=1 link.backoff_waits=0 link.corrected_bits=0 link.desync_errors=0 link.ladder_down=0 link.ladder_up=0 link.residual_errors=0 link.retries=0 link.round_failures=0 link.segments_sent=0 link.transfers_delivered=0 link.transfers_failed=0 link.transfers_started=0`},
		{"rs", func(sys *core.System, env *channel.Environment) (result, error) {
			st, err := NewRSTransferer(sys, env, DefaultRSConfig(), stats.SubSeed(33, "rs")).Send(context.Background(), payload)
			if err != nil {
				return result{}, err
			}
			return result{*st, st.Delivered, st.Received}, nil
		}, `Airtime=73.331ms BackoffWait=0s DecodeAttempts=1 Delivered=true FinalK=8 FinalN=10 FrameErasures=0 FrameErrors=2 FramesOK=8 FramesSent=10 ParityResizes=0 PayloadBytes=96 Rounds=50 coding.decode_attempts=1 coding.frame_erasures=0 coding.frame_errors=2 coding.frames_sent=10 coding.parity_resizes=0 coding.shards_sent=10 coding.symbols_sent=0 coding.transfers_delivered=1 coding.transfers_failed=0 coding.transfers_started=1 link.backoff_waits=0 link.corrected_bits=0 link.desync_errors=0 link.ladder_down=0 link.ladder_up=0 link.residual_errors=0 link.retries=0 link.round_failures=0 link.segments_sent=0 link.transfers_delivered=0 link.transfers_failed=0 link.transfers_started=0`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, env := codingTestbed(t, 33)
			sys.Faults, err = fault.NewInjector(p, stats.SubSeed(33, "fault"))
			if err != nil {
				t.Fatal(err)
			}
			camp := obs.NewCampaign(c.name, obs.CampaignOptions{})
			sys.Instrument(camp.Observer, 0, c.name)
			res, err := c.send(sys, env)
			if err != nil {
				t.Fatal(err)
			}
			if res.delivered && !bytes.Equal(res.received, payload) {
				t.Fatal("delivered payload differs")
			}
			fields := map[string]string{}
			flattenStats(reflect.ValueOf(res.stats), fields)
			var lines []string
			for k, v := range fields {
				lines = append(lines, k+"="+v)
			}
			for k, v := range camp.Registry.Snapshot().Deterministic().Counters {
				if strings.HasPrefix(k, "link.") || strings.HasPrefix(k, "coding.") {
					lines = append(lines, fmt.Sprintf("%s=%d", k, v))
				}
			}
			sort.Strings(lines)
			if got := strings.Join(lines, " "); got != c.want {
				t.Errorf("outcome moved:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}
