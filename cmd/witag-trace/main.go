// Command witag-trace is the forensic companion to witag-bench and
// witag-sim: it decodes the JSONL traces they write, aggregates them into
// per-trial analytics, flags anomalous trials, and re-runs exactly one
// flagged trial deterministically to reproduce its events.
//
// Usage:
//
//	witag-trace analyze [-json] [-timeline TL_x.jsonl] trace.jsonl
//	witag-trace flag [-ber-z Z] [-stall N] [-burst N] [-max-anomalies N]
//	                 [-json] trace.jsonl
//	witag-trace replay -trial N [-labels PATH] [-seed N] [-rounds N]
//	                   [-payload N] [-fault PROFILE] [-out FILE] trace.jsonl
//
// analyze prints the per-trial table (rounds, BER, loss runs, airtime
// percentiles, transfer/ARQ activity) plus any anomalies under the
// default thresholds. flag runs only the anomaly rules, with the
// thresholds adjustable; it exits 1 when anything is flagged — or, with
// -max-anomalies N, only when more than N trials flag — so it can gate
// scripts and CI. Both warn when the trace is clipped (ring overwrote
// events, or the file lost its tail) since counts are then lower bounds.
//
// analyze -timeline TL_x.jsonl additionally loads the experiment's
// timeline artifact (witag-bench -timeline) and aligns every anomaly
// onto the logical windows whose trial spans contain its trial — "trial
// 41's loss burst landed in window #5, trials [320,384)" — joining the
// what (anomaly rules) to the when (campaign timeline).
//
// replay re-runs the one trial named by -trial (and -labels, when the
// trace holds several label paths under one trial ID) through the same
// experiment code path, seeded from the stats.SubSeed label path the
// trace events carry. It then compares the replayed events against the
// original trace's slice — excluding the runner's volatile wall-time
// "trial" records — and exits non-zero unless they are byte-identical.
// -seed must be the campaign's root seed; -rounds defaults to the
// trial's round-event count in the trace (ablation/fec trials ignore it
// and run the ablation's fixed frame count); -payload and -fault mirror the
// robustness sweep's flags. -out additionally writes the replayed trace
// as JSONL for side-by-side inspection.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"witag/internal/buildinfo"
	"witag/internal/cliflags"
	"witag/internal/experiments"
	"witag/internal/forensics"
	"witag/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch os.Args[1] {
	case "-version", "--version":
		buildinfo.Print(os.Stdout, "witag-trace")
		return
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "flag":
		err = cmdFlag(os.Args[2:])
	case "replay":
		err = cmdReplay(ctx, os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "witag-trace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "witag-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  witag-trace analyze [-json] [-timeline TL_x.jsonl] trace.jsonl
  witag-trace flag [-ber-z Z] [-stall N] [-burst N] [-max-anomalies N] [-json] trace.jsonl
  witag-trace replay -trial N [-labels PATH] [-seed N] [-rounds N]
                     [-payload N] [-fault PROFILE] [-out FILE] trace.jsonl`)
}

// loadTrace decodes the positional trace argument of a subcommand,
// warning on stderr when the trace is incomplete.
func loadTrace(fs *flag.FlagSet) (*obs.Trace, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one trace file argument, got %d", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, err
	}
	if tr.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "witag-trace: warning: ring dropped %d of %d events before export; counts are lower bounds (raise -trace-cap when recording)\n", tr.Dropped, tr.Total)
	}
	if tr.Truncated {
		fmt.Fprintln(os.Stderr, "witag-trace: warning: trace file has no summary record — it was truncated mid-write; counts are lower bounds")
	}
	return tr, nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of aligned text")
	tlPath := fs.String("timeline", "", "TL_<name>.jsonl timeline artifact to align anomalies onto (witag-bench -timeline)")
	fs.Parse(args)
	if verr := cliflags.InputFile("-timeline", *tlPath); verr != nil {
		return verr
	}
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}
	rep := forensics.NewReport(forensics.Analyze(tr), forensics.DefaultThresholds())
	if *asJSON {
		s, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Print(s)
	} else {
		fmt.Print(rep.Render())
	}
	if *tlPath == "" {
		return nil
	}
	// Anomaly → window alignment. The report's own schema (pinned by
	// golden tests and external consumers) stays untouched: the join is
	// appended as its own section — a JSON array in -json mode, an
	// aligned table otherwise.
	f, err := os.Open(*tlPath)
	if err != nil {
		return err
	}
	tlog, err := obs.ReadTimelineLog(f)
	f.Close()
	if err != nil {
		return err
	}
	if tlog.Truncated {
		fmt.Fprintln(os.Stderr, "witag-trace: warning: timeline file has no summary record — it was truncated mid-write")
	}
	if tlog.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "witag-trace: warning: timeline ring dropped %d of %d windows before export; early anomalies may not align\n", tlog.Dropped, tlog.Total)
	}
	aligned := forensics.AlignAnomalies(rep.Anomalies, tlog.Windows)
	if *asJSON {
		buf, err := json.MarshalIndent(aligned, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
		return nil
	}
	fmt.Printf("\nanomaly timeline alignment (%d logical windows of %d trials):\n",
		len(tlog.Logical()), tlog.WindowTrials)
	fmt.Print(forensics.RenderAlignment(aligned))
	return nil
}

func cmdFlag(args []string) error {
	th := forensics.DefaultThresholds()
	fs := flag.NewFlagSet("flag", flag.ExitOnError)
	fs.Float64Var(&th.BERZ, "ber-z", th.BERZ, "flag trials whose BER z-score across peers reaches this")
	fs.IntVar(&th.StallAttempts, "stall", th.StallAttempts, "flag trials with this many consecutive failed segment attempts")
	fs.IntVar(&th.BurstRounds, "burst", th.BurstRounds, "flag trials with this many consecutive lost rounds")
	maxAnoms := fs.Int("max-anomalies", -1, "anomaly budget: exit non-zero when more than N trials flag; -1 keeps the default any-anomaly-fails gate")
	asJSON := fs.Bool("json", false, "emit anomalies as JSON instead of text")
	fs.Parse(args)
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}
	anoms := forensics.Flag(forensics.Analyze(tr), th)
	if *asJSON {
		buf, err := json.MarshalIndent(anoms, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
	} else if len(anoms) == 0 {
		fmt.Println("no anomalies")
	} else {
		for _, an := range anoms {
			fmt.Printf("%-10s trial=%-4d %-34s %s\n", an.Rule, an.Trial, an.Labels, an.Detail)
		}
	}
	// Gate semantics: without -max-anomalies any flag fails (the historic
	// behaviour); with a budget of N, up to N flagged trials are tolerated
	// — a campaign with a known background rate can still gate CI.
	budget := *maxAnoms
	if budget < 0 {
		budget = 0
	}
	if (*maxAnoms < 0 && len(anoms) > 0) || (*maxAnoms >= 0 && len(anoms) > budget) {
		if *maxAnoms >= 0 {
			fmt.Fprintf(os.Stderr, "witag-trace: %d anomalies exceed the -max-anomalies budget of %d\n", len(anoms), budget)
		}
		// Non-zero so scripts can gate on a clean campaign; the anomalies
		// themselves already went to stdout.
		os.Exit(1)
	}
	return nil
}

func cmdReplay(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	trial := fs.Int("trial", -1, "trace ID of the trial to replay (required)")
	labels := fs.String("labels", "", "seed-label path of the trial; required only when one trial ID carries several paths")
	seed := fs.Int64("seed", 42, "the campaign's root seed (witag-bench -seed)")
	rounds := fs.Int("rounds", 0, "per-trial round count; 0 derives it from the trace")
	payload := fs.Int("payload", 64, "robustness payload bytes (robust/… trials only)")
	faultProf := fs.String("fault", "bursty", "robustness fault profile (robust/… trials only)")
	out := fs.String("out", "", "also write the replayed trace as JSONL to this file")
	fs.Parse(args)
	if *trial < 0 {
		return fmt.Errorf("replay needs -trial N")
	}
	// Same up-front validation contract as the other CLIs (via
	// internal/cliflags): a bad -fault or unwritable -out must fail
	// before the replay runs, not after it.
	if verr := cliflags.FaultProfile("-fault", *faultProf, false); verr != nil {
		return verr
	}
	if verr := cliflags.OutputFile("-out", *out); verr != nil {
		return verr
	}
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}

	orig, path, err := selectTrial(tr, *trial, *labels)
	if err != nil {
		return err
	}
	if *rounds == 0 {
		for _, e := range orig {
			if e.Kind == "round" {
				*rounds++
			}
		}
	}

	// A fresh campaign with its own trace ring: the replay's
	// observability is isolated from whatever campaign produced the input
	// trace.
	camp := obs.NewCampaign("replay", obs.CampaignOptions{TraceCap: obs.DefaultTraceCap})
	rec := camp.Trace
	summary, err := experiments.ReplayTrial(ctx, experiments.ReplayRequest{
		Labels: path, Trial: *trial, Seed: *seed, Rounds: *rounds,
		PayloadBytes: *payload, FaultProfile: *faultProf, Campaign: camp,
	})
	if err != nil {
		return err
	}
	fmt.Printf("replayed trial %d (%s, seed %d): %s\n", *trial, path, *seed, summary)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := rec.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("replayed trace written to %s\n", *out)
	}

	replayed := dropVolatile(rec.Events())
	if i, ok := firstDivergence(orig, replayed); !ok {
		fmt.Printf("verified: %d replayed events byte-identical to the original trace slice\n", len(orig))
	} else {
		fmt.Fprintf(os.Stderr, "REPLAY MISMATCH: original has %d events, replay %d; first divergence at index %d\n",
			len(orig), len(replayed), i)
		if i < len(orig) {
			fmt.Fprintf(os.Stderr, "  original: %s\n", mustJSON(orig[i]))
		}
		if i < len(replayed) {
			fmt.Fprintf(os.Stderr, "  replayed: %s\n", mustJSON(replayed[i]))
		}
		if tr.Clipped() {
			fmt.Fprintln(os.Stderr, "  note: the input trace is clipped, so the original slice may be missing events")
		}
		os.Exit(1)
	}
	return nil
}

// selectTrial pulls one trial's non-volatile events out of the trace and
// resolves its label path.
func selectTrial(tr *obs.Trace, trial int, labels string) ([]obs.Event, string, error) {
	var out []obs.Event
	paths := map[string]bool{}
	for _, e := range tr.Events {
		if e.Trial != trial || e.Kind == "trial" {
			continue
		}
		if labels != "" && e.Labels != labels {
			continue
		}
		if e.Labels != "" {
			paths[e.Labels] = true
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, "", fmt.Errorf("trace has no events for trial %d%s", trial, labelSuffix(labels))
	}
	if labels != "" {
		return out, labels, nil
	}
	if len(paths) != 1 {
		var list []string
		for p := range paths {
			list = append(list, p)
		}
		return nil, "", fmt.Errorf("trial %d carries %d label paths %v — pick one with -labels", trial, len(paths), list)
	}
	for p := range paths {
		return out, p, nil
	}
	return nil, "", fmt.Errorf("trial %d has no labeled events to derive a seed path from", trial)
}

func labelSuffix(labels string) string {
	if labels == "" {
		return ""
	}
	return fmt.Sprintf(" with labels %q", labels)
}

// dropVolatile removes the runner's wall-time "trial" records, the only
// events whose payload is not a pure function of the seeds.
func dropVolatile(events []obs.Event) []obs.Event {
	out := events[:0]
	for _, e := range events {
		if e.Kind != "trial" {
			out = append(out, e)
		}
	}
	return out
}

// firstDivergence compares two event slices by their JSON encodings and
// returns the first differing index (ok=false when identical).
func firstDivergence(a, b []obs.Event) (int, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if mustJSON(a[i]) != mustJSON(b[i]) {
			return i, true
		}
	}
	if len(a) != len(b) {
		return n, true
	}
	return 0, false
}

func mustJSON(e obs.Event) string {
	buf, err := json.Marshal(e)
	if err != nil {
		panic(err)
	}
	return string(buf)
}
