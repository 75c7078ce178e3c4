package main

import "fmt"

// Workload sizes. The traced run rebuilds trials of the same sizes, so
// both sides of the fidelity check share these constants.
const (
	fig5Runs   = 16
	fig5Rounds = 1500
	// fig6CLIRounds is witag-bench's -rounds for Figure 6, which runs
	// half as many rounds per trial.
	fig6CLIRounds   = 1200
	fig6TrialRounds = fig6CLIRounds / 2
	fig6Runs        = 60 // experiments.DefaultFigure6Config().Runs
	// observedTraceCap caps coding-observed's trace ring below the sweep's
	// ≈240k events, so the ring reaches its overwrite steady state
	// mid-run. At the default cap it is still growing at the end, and peak
	// RSS lands near 140 or 180 MiB depending on whether a GC falls
	// between its last growth and the export snapshot.
	observedTraceCap = 1 << 16
)

// workload is one witag-bench command line the benchmark times as a
// child process.
type workload struct {
	name string
	why  string
	// experiment names the BENCH_<experiment>.json artifacts it writes.
	experiment string
	args       []string
	// observed adds the instrumentation write path: timeline, JSONL log
	// and per-experiment trace ring.
	observed bool
	// trials is the exact runner trial count a correct run starts.
	trials int64
	// rounds is the exact core.rounds count of a correct run; 0 when the
	// count depends on the seed (transfers stop when they deliver).
	rounds int64
}

var workloads = []workload{
	{
		name:       "los-fig5",
		why:        "Figure 5 LoS sweep: long trials on the bare QueryRound hot path (channel and decode model), no faults, traffic or coding",
		experiment: "fig5",
		args:       []string{"-experiment", "fig5", "-runs", fmt.Sprint(fig5Runs), "-rounds", fmt.Sprint(fig5Rounds)},
		trials:     7 * fig5Runs,
		rounds:     7 * fig5Runs * fig5Rounds,
	},
	{
		name:       "nlos-fig6",
		why:        "Figure 6 NLoS CDFs: same layers behind walls at the error cliff, where nearly every decode-model call pays the full union bound",
		experiment: "fig6",
		args:       []string{"-experiment", "fig6", "-rounds", fmt.Sprint(fig6CLIRounds)},
		trials:     2 * fig6Runs,
		rounds:     2 * fig6Runs * fig6TrialRounds,
	},
	{
		name:       "coding-sweep",
		why:        "ARQ/LT/RS transfer sweep: 720 short trials that rebuild their world, with fault, traffic, link and coding layers over QueryRound",
		experiment: "coding",
		args:       []string{"-experiment", "coding"},
		trials:     720,
	},
	{
		name:       "coding-observed",
		why:        "coding-sweep with timeline, JSONL log and a 64Ki-event trace ring exported: the instrumentation write path that coding-sweep bypasses",
		experiment: "coding",
		args:       []string{"-experiment", "coding"},
		observed:   true,
		trials:     720,
	},
}

// vettedSeeds are the witag-bench seeds on which every workload's command
// line exits 0. About a quarter of all seeds fail Figure 6's shape checks
// (a minute past the coding cliff, or location B's p90 not above A's): a
// property of the sampled deployments, not a defect, but a benchmark input
// must not fail. Found by running each workload's command at every seed in
// 0..40, 42 and 1001 and keeping the seeds where all of them exit 0.
// Seed 34 is out for another reason: in its coding sweep an ARQ transfer
// reports delivery of bytes that differ from those sent.
var vettedSeeds = []int64{0, 1, 2, 3, 5, 7, 9, 11, 12, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 31, 32, 37, 38, 39, 40, 42, 1001}

// witagSeed maps a benchmark seed to the witag-bench seed the workloads
// run: the seed itself when vetted, else the vetted seed it indexes.
func witagSeed(seed int64) int64 {
	for _, s := range vettedSeeds {
		if s == seed {
			return seed
		}
	}
	return vettedSeeds[uint64(seed)%uint64(len(vettedSeeds))]
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
