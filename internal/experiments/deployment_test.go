package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"witag/internal/channel"
	"witag/internal/obs"
	"witag/internal/sim"
)

// simDefaults is witag-sim's deployment with every flag at its default.
func simDefaults() DeploymentConfig {
	return DeploymentConfig{
		AP: channel.Point{X: 8}, Tag: channel.Point{X: 1, Y: 0.3},
		Cipher: "open", Gain: TagGain, TempC: 25,
		PayloadBytes: 96, Seed: 1, Runs: 1, Rounds: 1000,
	}
}

// runDeployment runs cfg on workers under a fresh campaign.
func runDeployment(t *testing.T, cfg DeploymentConfig, workers int) (*Result, obs.Snapshot) {
	t.Helper()
	camp := obs.NewCampaign("test", obs.CampaignOptions{})
	res, err := Deployment(cfg).Run(context.Background(), sim.Runner{Workers: workers, Campaign: camp}, SuiteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return res, camp.Registry.Snapshot()
}

// TestDeploymentRenderPinned pins the report witag-sim printed before
// its deployment became a batch-path experiment, for a round campaign, a
// coded transfer under faults and traffic, an encrypted link under harsh
// faults and an ARQ transfer behind walls. Each want is the command's
// stdout less the newline the batch loop adds.
func TestDeploymentRenderPinned(t *testing.T) {
	cases := []struct {
		flags string
		edit  func(c *DeploymentConfig)
		want  string
	}{
		{"-runs 4 -rounds 300", func(c *DeploymentConfig) { c.Runs, c.Rounds = 4, 300 }, `deployment: client (0,0), AP (8.00, 0.00), tag (1.00, 0.30), cipher open
link SNR          : 47.8 dB
query shape       : 4 triggers + 60 data subframes, 1 tick(s)/subframe
offered tag rate  : 40.8 Kbps
runs              : 4 × 300 rounds (1.8 s of airtime)
detection rate    : 1.000 (mean of 4 runs)
tag BER           : 0.00481 ± 0.00053 across runs (346/72000 bits)
delivered goodput : 40.6 Kbps`},
		{"-transfer fountain -fault bursty -traffic download -runs 6", func(c *DeploymentConfig) {
			c.Transfer, c.Fault, c.Traffic, c.Runs = "fountain", "bursty", "download", 6
		}, `transfer scheme   : fountain (96-byte payloads)
fault profile     : bursty
traffic profile   : download
transfers         : 6 (2.2 s of airtime)
delivery rate     : 1.000 (6/6)
mean rounds       : 242.2 (51.7 frames)
delivered goodput : 3.0 Kbps`},
		{"-cipher ccmp -fault harsh -runs 2 -rounds 300", func(c *DeploymentConfig) {
			c.Cipher, c.Fault, c.Runs, c.Rounds = "ccmp", "harsh", 2, 300
		}, `deployment: client (0,0), AP (8.00, 0.00), tag (1.00, 0.30), cipher ccmp
fault profile     : harsh (mean subframe loss 0.142, 16.7% of time in burst)
link SNR          : 47.8 dB
query shape       : 4 triggers + 60 data subframes, 2 tick(s)/subframe
offered tag rate  : 21.8 Kbps
runs              : 2 × 300 rounds (1.6 s of airtime)
detection rate    : 0.952 (mean of 2 runs)
tag BER           : 0.12808 ± 0.01159 across runs (4611/36000 bits)
delivered goodput : 19.0 Kbps`},
		{`-transfer arq -runs 4 -walls "3.5:7,9:9"`, func(c *DeploymentConfig) {
			c.Transfer, c.Runs, c.Walls = "arq", 4, [][2]float64{{3.5, 7}, {9, 9}}
		}, `transfer scheme   : arq (96-byte payloads)
transfers         : 4 (0.3 s of airtime)
delivery rate     : 1.000 (4/4)
mean rounds       : 48.2 (5.8 frames)
delivered goodput : 11.1 Kbps`},
	}
	for _, c := range cases {
		cfg := simDefaults()
		c.edit(&cfg)
		res, _ := runDeployment(t, cfg, 1)
		if got := res.Render(); got != c.want {
			t.Errorf("witag-sim %s rendered:\n%s\nwant:\n%s", c.flags, got, c.want)
		}
	}
}

// TestDeploymentDeterministicAcrossWorkerCounts runs a round campaign
// and a transfer campaign at one and two workers: the report, the BENCH
// series and every deterministic counter and histogram must match.
func TestDeploymentDeterministicAcrossWorkerCounts(t *testing.T) {
	rounds := simDefaults()
	rounds.Fault, rounds.Traffic, rounds.Runs, rounds.Rounds = "bursty", "office", 4, 120
	transfers := simDefaults()
	transfers.Transfer, transfers.Fault, transfers.Runs, transfers.PayloadBytes = "rs", "bursty", 4, 48
	for _, cfg := range []DeploymentConfig{rounds, transfers} {
		serial, ss := runDeployment(t, cfg, 1)
		parallel, ps := runDeployment(t, cfg, 2)
		assertIdentical(t, serial.Series, parallel.Series, serial.Render(), parallel.Render())
		ds, dp := ss.Deterministic(), ps.Deterministic()
		if !reflect.DeepEqual(ds, dp) {
			bs, _ := json.Marshal(ds)
			bp, _ := json.Marshal(dp)
			t.Fatalf("worker count changed the metrics:\nserial:   %s\nparallel: %s", bs, bp)
		}
		if ds.Counters["core.rounds"] == 0 || ds.Counters["runner.trials_started"] != int64(cfg.Runs) {
			t.Fatalf("%d rounds over %d trials recorded — instrumentation not exercised", ds.Counters["core.rounds"], ds.Counters["runner.trials_started"])
		}
	}
}
