package main

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsNonFiniteDeployment runs each bad deployment and requires
// an error naming its flag before any trial: the campaign's timeline,
// written whenever a campaign starts, must not exist.
func TestRunRejectsNonFiniteDeployment(t *testing.T) {
	good := deployment{apStr: "8,0", tagStr: "1,0.3", cipherStr: "open", gain: 68, tempC: 25}
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
		{"temp NaN", "-temp", func(d *deployment) { d.tempC = math.NaN() }},
		{"gain NaN", "-gain", func(d *deployment) { d.gain = math.NaN() }},
		{"gain negative", "-gain", func(d *deployment) { d.gain = -5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := good
			c.edit(&d)
			tl := filepath.Join(t.TempDir(), "tl.jsonl")
			ocfg := obsConfig{logLevel: "info", tlPath: tl, tlWindow: 1}
			err := run(context.Background(), d, ocfg, 1, 1, 1, 1)
			if err == nil || !strings.HasPrefix(err.Error(), c.flag+":") {
				t.Fatalf("run = %v, want an error naming %s", err, c.flag)
			}
			if _, serr := os.Stat(tl); !errors.Is(serr, fs.ErrNotExist) {
				t.Fatalf("the campaign started before %s was refused (timeline: %v)", c.flag, serr)
			}
		})
	}
	if _, err := good.parse(); err != nil {
		t.Fatalf("the default deployment was refused: %v", err)
	}
	zero := good
	zero.gain, zero.wallsStr = 0, " 3.5 : 7 ,9:9"
	if _, err := zero.parse(); err != nil {
		t.Fatalf("a zero gain or spaced walls were refused: %v", err)
	}
}
