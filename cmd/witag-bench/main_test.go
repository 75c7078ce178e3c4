package main

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"witag/internal/experiments"
	"witag/internal/sim"
)

// namedExperiment renders "table <name>" and checks nothing.
func namedExperiment(name string) experiments.Experiment {
	return experiments.Experiment{Name: name, Run: func(context.Context, sim.Runner, experiments.SuiteConfig) (*experiments.Result, error) {
		return &experiments.Result{Render: func() string { return "table " + name + "\n" }}, nil
	}}
}

// TestExperimentChoices checks that -experiment offers "all" and then
// the table's names in order, and selects one experiment by name.
func TestExperimentChoices(t *testing.T) {
	suite := []experiments.Experiment{namedExperiment("alpha"), namedExperiment("beta")}
	if got, want := experimentChoices(suite), []string{"all", "alpha", "beta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("choices = %v, want %v", got, want)
	}
	want := []string{"all", "fig3", "fig5", "fig6", "s41", "compare", "power", "ablations", "robustness", "coding"}
	if got := experimentChoices(experiments.Suite); !reflect.DeepEqual(got, want) {
		t.Fatalf("suite choices = %v, want %v", got, want)
	}

	cfg := benchConfig{experiment: "beta"}
	cfg.FaultProfile, cfg.Scheme, cfg.Traffic = "bursty", "all", "all"
	cfg.Parallel, cfg.LogLevel, cfg.TimelineWin = 1, "info", 1
	var stdout bytes.Buffer
	if err := run(context.Background(), cfg, suite, &stdout, io.Discard); err != nil || stdout.String() != "table beta\n\n" {
		t.Fatalf("-experiment beta printed %q, err %v; want beta's table alone", stdout.String(), err)
	}
	cfg.experiment = "gamma"
	if err := run(context.Background(), cfg, suite, &stdout, io.Discard); err == nil || !strings.Contains(err.Error(), "all, alpha, beta") {
		t.Fatalf("-experiment gamma returned %v, want an error listing the choices", err)
	}
}
