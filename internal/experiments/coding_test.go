package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"
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
// codingWorld for each scheme, drive identical query rounds, and require
// the observable channel behaviour to match bit for bit.
func TestCodingSchemeOutsideSeedTree(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	cfg.Seed = 99
	for _, prof := range cfg.Profiles {
		type roundObs struct {
			Detected  bool
			BALost    bool
			BitErrors int
			RxBits    []byte
		}
		var ref []roundObs
		for si, scheme := range CodingSchemes {
			sys, env, payload, _, err := codingWorld(cfg, prof, scheme, 0, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []roundObs
			bits := make([]byte, sys.Spec.DataLen)
			for i := range bits {
				bits[i] = byte(i+len(payload)) & 1
			}
			for r := 0; r < 40; r++ {
				res, err := sys.QueryRound(bits)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, roundObs{res.Detected, res.BALost, res.BitErrors, res.RxBits})
				env.Advance(0.05)
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
