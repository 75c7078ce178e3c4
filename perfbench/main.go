// Command perfbench is the repository's performance benchmark. It builds
// cmd/witag-bench from the checkout and measures the simulator from
// outside in two ways:
//
//   - end to end: each workload is a witag-bench command line run as a
//     child process, one at a time, timed by wall clock and rusage, its
//     artifacts checked for correctness;
//   - per layer (-trace 1): an in-process run that rebuilds a sample of
//     the workload's own trials, times the layers' exported calls and
//     checks that it reproduces the end-to-end artifacts exactly.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh [-workload NAME|all] [-seed N] [-reps N] [-seconds S] [-trace 0|1]
//	bash perfbench/run.sh -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every run also writes
// results.json (samples, medians, quartiles) under -out. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// results is the results.json document.
type results struct {
	Seed      int64                      `json:"seed"`
	WitagSeed int64                      `json:"witag_seed"`
	Passes    int                        `json:"passes"`
	Workers   int                        `json:"workers"`
	NProc     int                        `json:"nproc"`
	GoVersion string                     `json:"go_version"`
	Trace     bool                       `json:"trace"`
	Correct   bool                       `json:"correct"`
	Attempted int64                      `json:"attempted"`
	Failed    int64                      `json:"failed"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's measurements and checks.
type workloadResult struct {
	Metrics   map[string]metricResult `json:"metrics,omitempty"`
	Layers    map[string]float64      `json:"layers,omitempty"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Digest    string                  `json:"digest,omitempty"`
	Errors    []string                `json:"errors,omitempty"`

	samples map[string][]float64
	runs    []childRun // runs that passed every check
}

type metricResult struct {
	Unit   string `json:"unit"`
	Better string `json:"better"`
	summary
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 42, "workload seed; selects the witag-bench -seed among the vetted seeds")
		reps    = flag.Int("reps", 3, "round-robin passes over the selected workloads")
		secs    = flag.Float64("seconds", 0, "measurement budget: start another pass only while it is predicted to end within this many seconds (0: run all -reps passes)")
		trace   = flag.Int("trace", 0, "1: traced per-layer run, printing the per-layer metrics")
		cmp     = flag.Bool("compare", false, "compare two results.json files, A then B, against the BENCHMARK.json bounds")
		root    = flag.String("root", ".", "repository checkout to build and measure")
		outFlag = flag.String("out", "", "output directory (default ROOT/.bench_build/perfbench)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cmp {
		return runCompare(*root, flag.Args())
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	}
	switch {
	case len(ws) == 0:
		return usage("unknown -workload %q (valid: all, %s)", *name, strings.Join(workloadNames(), ", "))
	case *reps < 1:
		return usage("-reps must be >= 1, got %d", *reps)
	case *secs < 0:
		return usage("-seconds must be >= 0, got %v", *secs)
	case *trace != 0 && *trace != 1:
		return usage("-trace must be 0 or 1, got %d", *trace)
	case flag.NArg() > 0:
		return usage("unexpected arguments %q", flag.Args())
	}
	if _, err := os.Stat(filepath.Join(*root, "cmd", "witag-bench", "main.go")); err != nil {
		return usage("no witag-bench source under %q: run from the repository root or pass -root", *root)
	}
	out := *outFlag
	if out == "" {
		out = filepath.Join(*root, ".bench_build", "perfbench")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return fail(err)
	}

	bin, sum, err := buildBench(ctx, *root, out)
	if err != nil {
		return fail(err)
	}
	ledger := openLedger(filepath.Join(out, "digests.json"))
	res := &results{Seed: *seed, WitagSeed: witagSeed(*seed), Workers: workers, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Trace: *trace == 1}
	if res.Trace {
		res.Passes = 1
		res.Workloads, err = traceAll(ctx, bin, sum, ws, res.WitagSeed, out, ledger)
	} else {
		res.Workloads, res.Passes, err = measure(ctx, bin, sum, ws, res.WitagSeed, *reps, *secs, out, ledger)
	}
	if err != nil {
		return fail(err)
	}
	res.Correct = true
	for _, r := range res.Workloads {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Correct = res.Correct && r.Failed == 0 && len(r.Errors) == 0
	}
	report(res, ws)
	if err := writeJSON(filepath.Join(out, "results.json"), res); err != nil {
		return fail(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(lastLine(res, ws)); err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	return 2
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

func runCompare(root string, args []string) int {
	if len(args) != 2 {
		return usage("-compare takes two results.json files, A then B")
	}
	s, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	a, err := loadResults(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := loadResults(args[1])
	if err != nil {
		return fail(err)
	}
	if compare(os.Stdout, s, a, b) {
		return 1
	}
	return 0
}

// measure runs the workloads round-robin, one child at a time, for up to
// reps passes, stopping early when the next pass is predicted to overrun
// the budget (seconds > 0). It returns each workload's result and the
// passes run.
func measure(ctx context.Context, bin, sum string, ws []workload, seed int64, reps int, seconds float64, out string, ledger *digestLedger) (map[string]*workloadResult, int, error) {
	res := map[string]*workloadResult{}
	for _, w := range ws {
		res[w.name] = &workloadResult{samples: map[string][]float64{}}
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var pass time.Duration
	passes := 0
	for ; passes < reps; passes++ {
		if passes > 0 && budget > 0 && time.Since(start)+pass > budget {
			break
		}
		passStart := time.Now()
		for _, w := range ws {
			r := res[w.name]
			setup, err := setupSamples(ctx, bin, setupExecs)
			if err != nil {
				return nil, 0, err
			}
			_, setupMedian, _ := quartiles(setup)
			r.samples["setup_s"] = append(r.samples["setup_s"], setupMedian)
			run, err := runChild(ctx, bin, w, seed, runDir(out, w))
			if err != nil {
				return nil, 0, err
			}
			if run.err == nil {
				run.err = ledger.check(fmt.Sprintf("%.16s/%s/seed=%d", sum, w.experiment, seed), run.digest)
			}
			r.add(w, run)
		}
		pass = time.Since(passStart)
	}
	for _, r := range res {
		r.Metrics = map[string]metricResult{}
		for _, m := range e2eMetrics {
			r.Metrics[m.Name] = metricResult{Unit: m.Unit, Better: m.Better, summary: summarize(r.samples[m.Name])}
		}
	}
	return res, passes, nil
}

func runDir(out string, w workload) string { return filepath.Join(out, "run", w.name) }

// add books one child run. A run that failed any check fails all of its
// trials and contributes no timings.
func (r *workloadResult) add(w workload, run childRun) {
	r.Attempted += w.trials
	if run.err != nil {
		r.Failed += w.trials
		r.Errors = append(r.Errors, run.err.Error())
		return
	}
	r.Digest = run.digest
	r.runs = append(r.runs, run)
	r.samples["wall_s"] = append(r.samples["wall_s"], run.wallS)
	r.samples["cpu_s"] = append(r.samples["cpu_s"], run.cpuS)
	r.samples["peak_rss_mb"] = append(r.samples["peak_rss_mb"], run.rssMiB)
	r.samples["rounds_per_s"] = append(r.samples["rounds_per_s"], float64(run.counters["core.rounds"])/run.wallS)
}

// traceAll does, per workload, one end-to-end pass (for coding-observed
// preceded by a coding-sweep child, the base of obs.overhead_frac) and
// then the traced run, checked against that pass's artifacts.
func traceAll(ctx context.Context, bin, sum string, ws []workload, seed int64, out string, ledger *digestLedger) (map[string]*workloadResult, error) {
	res := map[string]*workloadResult{}
	for _, w := range ws {
		set := []workload{w}
		if w.observed {
			sweep, _ := workloadByName("coding-sweep")
			set = []workload{sweep, w}
		}
		m, _, err := measure(ctx, bin, sum, set, seed, 1, 0, out, ledger)
		if err != nil {
			return nil, err
		}
		r := m[w.name]
		var sweepRun *childRun
		if w.observed {
			s := m["coding-sweep"]
			r.Attempted += s.Attempted
			r.Failed += s.Failed
			r.Errors = append(r.Errors, s.Errors...)
			if len(s.runs) > 0 {
				sweepRun = &s.runs[0]
			}
		}
		res[w.name] = r
		t := newTracer(shadowEvery)
		if len(r.runs) == 0 {
			r.Layers = layerMetrics(t, childRun{}, nil)
			continue
		}
		terr := t.traceWorkload(ctx, w, seed, runDir(out, w))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		traced := int64(t.counts["trials"])
		r.Attempted += traced
		if terr != nil {
			r.Failed += max(traced, 1)
			r.Errors = append(r.Errors, fmt.Sprintf("%s traced run: %v", w.name, terr))
		}
		r.Layers = layerMetrics(t, r.runs[0], sweepRun)
		if err := t.writeSpans(filepath.Join(out, "trace_"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// report prints every metric by name, with its unit, to standard output.
func report(res *results, ws []workload) {
	for _, w := range ws {
		r := res.Workloads[w.name]
		fmt.Printf("%s: attempted %d trials, failed %d, digest %.12s\n", w.name, r.Attempted, r.Failed, r.Digest)
		for _, e := range r.Errors {
			fmt.Printf("  FAILED: %s\n", e)
		}
		if res.Trace {
			for _, m := range layerMetricDefs() {
				fmt.Printf("  %-38s %14.6g %s\n", m.Name, r.Layers[m.Name], m.Unit)
			}
			continue
		}
		for _, m := range e2eMetrics {
			s := r.Metrics[m.Name]
			fmt.Printf("  %-14s %12.6g %-9s [q1 %.6g, q3 %.6g] n=%d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, len(s.Samples))
		}
	}
	fmt.Printf("seed %d (witag-bench seed %d), %d pass(es), %d workers, nproc %d, %s\n",
		res.Seed, res.WitagSeed, res.Passes, res.Workers, res.NProc, res.GoVersion)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the one-line summary: end-to-end medians, or per-layer
// values with -trace 1; with several workloads each name is prefixed by
// its workload.
func lastLine(res *results, ws []workload) any {
	metrics := map[string]value{}
	for _, w := range ws {
		r := res.Workloads[w.name]
		prefix := ""
		if len(ws) > 1 {
			prefix = w.name + "."
		}
		if res.Trace {
			for _, m := range layerMetricDefs() {
				metrics[prefix+m.Name] = value{r.Layers[m.Name], m.Unit}
			}
			continue
		}
		for _, m := range e2eMetrics {
			metrics[prefix+m.Name] = value{r.Metrics[m.Name].Median, m.Unit}
		}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
