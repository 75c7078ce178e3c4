// NLoS office: the Figure 4 floor plan's non-line-of-sight scenarios.
//
// The tag sits one metre from the client; the AP is in another room —
// location A ≈7 m away behind a wooden wall, location B ≈17 m away behind
// concrete and metal cabinets — while people work and walk around. The
// paper reports 90th-percentile BERs of 0.007 (A) and 0.018 (B); this
// example reproduces the campaign at reduced scale and prints both CDFs.
//
// Run: go run ./examples/nlosoffice
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"witag/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== WiTAG through walls: Figure 4's locations A and B ===")
	cfg := experiments.Figure6Config{Seed: 11, Runs: 30, Round: 150}

	a, err := experiments.Figure6Ctx(context.Background(), experiments.LocationA, cfg)
	if err != nil {
		return err
	}
	cfg.Seed = 12
	b, err := experiments.Figure6Ctx(context.Background(), experiments.LocationB, cfg)
	if err != nil {
		return err
	}

	fmt.Println(a.Render())
	fmt.Println(b.Render())

	if err := experiments.CheckFigure6Shape(a, b); err != nil {
		return fmt.Errorf("shape check: %w", err)
	}
	fmt.Println("shape checks passed: low BER throughout; B (more walls, 17 m) worse than A,")
	fmt.Println("matching the paper's 90th-percentile ordering.")

	// Show what the deployment actually looks like.
	sys, env, err := experiments.NLoSTestbed(experiments.LocationB, 13)
	if err != nil {
		return err
	}
	snr, err := env.SNR(sys.ClientPos, sys.APPos)
	if err != nil {
		return err
	}
	fmt.Printf("\nlocation B link: client %v → AP %v through %d obstacles, SNR after walls ≈ %.0f dB\n",
		sys.ClientPos, sys.APPos, len(env.Walls), 10*lg(snr))
	for _, w := range env.Walls {
		fmt.Printf("  wall at x=%.1f: %s (−%.0f dB)\n", w.A.X, w.Material, w.AttenuationDb)
	}
	return nil
}

func lg(x float64) float64 {
	if x <= 0 {
		return -30
	}
	return math.Log10(x)
}
