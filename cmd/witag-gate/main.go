// Command witag-gate is the regression sentinel's CLI: it compares a
// candidate bench-artifact directory against a committed baseline and
// exits non-zero when the science regressed.
//
// Usage:
//
//	witag-gate -candidate DIR [-baseline bench] [-json] [-tol 0.10]
//	           [-alpha 0.05] [-strict]
//
// Both directories hold the BENCH_<name>.json / BENCH_<name>.metrics.json
// pairs that `witag-bench -json DIR` writes. Three tiers run per
// experiment (DESIGN.md §12): deterministic metrics must match exactly,
// stochastic science series are classified ok/drift/regression/improvement
// per point via tolerance bands plus Welch's t (or a deterministic
// bootstrap over raw trials), and the PROF profiles must keep every
// phase firing. Wall-clock figures are not compared: the committed
// baselines were timed on another machine, so speed is gated by a
// same-machine A/B against the merge base (`make perfcmp REF=<rev>`).
//
// Exit status: 0 when the overall verdict is ok, improvement or drift;
// 1 on regression (or on drift too, with -strict); 2 on usage or I/O
// errors. Reports are deterministic: the same artifact pair renders
// byte-identical output on every run.
package main

import (
	"flag"
	"fmt"
	"os"

	"witag/internal/buildinfo"
	"witag/internal/cliflags"
	"witag/internal/regress"
)

func main() {
	opts := regress.DefaultOptions()
	baseline := flag.String("baseline", "bench", "baseline artifact directory (the committed reference)")
	candidate := flag.String("candidate", "", "candidate artifact directory to gate (required)")
	asJSON := flag.Bool("json", false, "emit the drift report as JSON instead of aligned text")
	flag.Float64Var(&opts.Tolerance, "tol", opts.Tolerance, "relative tolerance band for science series points")
	flag.Float64Var(&opts.Alpha, "alpha", opts.Alpha, "significance level for the Welch/bootstrap tests")
	strict := flag.Bool("strict", false, "also exit non-zero on drift (not just regression)")
	version := flag.Bool("version", false, "print build provenance (git SHA, Go version) and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "witag-gate")
		return
	}

	if *candidate == "" {
		fmt.Fprintln(os.Stderr, "witag-gate: -candidate DIR is required")
		flag.Usage()
		os.Exit(2)
	}
	// Same up-front validation contract as the other CLIs (via
	// internal/cliflags): a mistyped directory must fail with the flag
	// named, not as a bare open error mid-gate.
	for flagName, dir := range map[string]string{"-baseline": *baseline, "-candidate": *candidate} {
		if verr := cliflags.InputDir(flagName, dir); verr != nil {
			fmt.Fprintln(os.Stderr, "witag-gate:", verr)
			os.Exit(2)
		}
	}
	rep, err := regress.Gate(*baseline, *candidate, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "witag-gate:", err)
		os.Exit(2)
	}
	if *asJSON {
		s, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "witag-gate:", err)
			os.Exit(2)
		}
		fmt.Print(s)
	} else {
		fmt.Print(rep.Render())
	}
	switch rep.Verdict {
	case regress.ClassRegression:
		os.Exit(1)
	case regress.ClassDrift:
		if *strict {
			os.Exit(1)
		}
	}
}
