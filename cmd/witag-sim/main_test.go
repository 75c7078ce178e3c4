package main

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"witag/internal/clirun"
	"witag/internal/experiments"
)

// TestRunRejectsNonFiniteDeployment runs each bad deployment and requires
// an error naming its flag before any trial: the campaign's artifacts,
// written whenever it runs the deployment, must not exist.
func TestRunRejectsNonFiniteDeployment(t *testing.T) {
	good := deployment{apStr: "8,0", tagStr: "1,0.3", DeploymentConfig: experiments.DeploymentConfig{
		Cipher: "open", Gain: 68, TempC: 25, Seed: 1, Runs: 1, Rounds: 1,
	}}
	cases := []struct {
		name, flag string
		edit       func(d *deployment)
	}{
		{"ap NaN", "-ap", func(d *deployment) { d.apStr = "NaN,0" }},
		{"tag Inf", "-tag", func(d *deployment) { d.tagStr = "1,Inf" }},
		{"tag -Inf", "-tag", func(d *deployment) { d.tagStr = "-Inf,0.3" }},
		{"wall position NaN", "-walls", func(d *deployment) { d.wallsStr = "NaN:7" }},
		{"wall loss NaN", "-walls", func(d *deployment) { d.wallsStr = "5:NaN" }},
		{"second wall Inf", "-walls", func(d *deployment) { d.wallsStr = "3.5:7,Inf:9" }},
		{"wall garbage", "-walls", func(d *deployment) { d.wallsStr = "garbage" }},
		{"temp NaN", "-temp", func(d *deployment) { d.TempC = math.NaN() }},
		{"gain NaN", "-gain", func(d *deployment) { d.Gain = math.NaN() }},
		{"gain negative", "-gain", func(d *deployment) { d.Gain = -5 }},
		{"cipher unknown", "-cipher", func(d *deployment) { d.Cipher = "foo" }},
		{"rounds zero", "-rounds", func(d *deployment) { d.Rounds = 0 }},
		{"rounds negative", "-rounds", func(d *deployment) { d.Rounds, d.Runs = -5, 2 }},
		{"runs zero", "-runs", func(d *deployment) { d.Runs = 0 }},
		{"runs negative", "-runs", func(d *deployment) { d.Runs = -3 }},
	}
	// runIn runs d with its artifacts under a fresh directory and returns
	// how many of BENCH_sim.json and TL_sim.jsonl exist, and the error.
	runIn := func(t *testing.T, d deployment) (int, error) {
		dir := t.TempDir()
		cfg := clirun.Config{Flags: clirun.Flags{Parallel: 1, JSONDir: dir, LogLevel: "info", Timeline: true, TimelineWin: 1, TraceCap: 1}}
		err := run(context.Background(), d, cfg, io.Discard, io.Discard)
		exist := 0
		for _, name := range []string{"BENCH_sim.json", "TL_sim.jsonl"} {
			if _, serr := os.Stat(filepath.Join(dir, name)); serr == nil {
				exist++
			} else if !errors.Is(serr, fs.ErrNotExist) {
				t.Fatal(serr)
			}
		}
		return exist, err
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := good
			c.edit(&d)
			exist, err := runIn(t, d)
			if err == nil || !strings.HasPrefix(err.Error(), c.flag+":") {
				t.Fatalf("run = %v, want an error naming %s", err, c.flag)
			}
			if exist != 0 {
				t.Fatalf("the campaign ran before %s was refused", c.flag)
			}
		})
	}
	if exist, err := runIn(t, good); err != nil || exist != 2 {
		t.Fatalf("the default deployment: run = %v with %d of its 2 artifacts written; want nil and both", err, exist)
	}
	zero := good
	zero.Gain, zero.wallsStr = 0, " 3.5 : 7 ,9:9"
	if _, err := zero.parse(); err != nil {
		t.Fatalf("a zero gain or spaced walls were refused: %v", err)
	}
}

// TestTransferProvenanceHasNoRounds: a transfer run never reads -rounds,
// so no provenance stamp of its artifacts or its ledger line carries a
// round count; a round run's all do.
func TestTransferProvenanceHasNoRounds(t *testing.T) {
	d := deployment{apStr: "8,0", tagStr: "1,0.3", DeploymentConfig: experiments.DeploymentConfig{
		Cipher: "open", Gain: experiments.TagGain, TempC: 25, PayloadBytes: 16, Seed: 1, Runs: 1, Rounds: 40,
	}}
	for _, transfer := range []string{"fountain", ""} {
		d.Transfer = transfer
		dir := t.TempDir()
		cfg := clirun.Config{Flags: clirun.Flags{Parallel: 1, JSONDir: dir, LogLevel: "info", TimelineWin: 1, TraceCap: 1}}
		if err := run(context.Background(), d, cfg, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"BENCH_sim.json", "BENCH_sim.metrics.json", "PROF_sim.json", "RUNS.jsonl"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			// Only the provenance stamp has a lower-case "rounds" key.
			if got, want := strings.Contains(string(b), `"rounds"`), transfer == ""; got != want {
				t.Errorf("-transfer %q: %s stamps rounds: %v, want %v", transfer, name, got, want)
			}
		}
	}
}
