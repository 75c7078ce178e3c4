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
	}
	// runIn runs d with its artifacts under a fresh directory and returns
	// how many of BENCH_sim.json and TL_sim.jsonl exist, and the error.
	runIn := func(t *testing.T, d deployment) (int, error) {
		dir := t.TempDir()
		cfg := clirun.Config{Flags: clirun.Flags{Parallel: 1, JSONDir: dir, LogLevel: "info", Timeline: true, TimelineWin: 1}}
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
