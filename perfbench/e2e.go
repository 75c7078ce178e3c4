package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupExecs is how many `witag-bench -version` processes one pass times;
// their median is the pass's setup_s sample.
const setupExecs = 21

// workers is the -parallel width and GOMAXPROCS of every child.
var workers = min(2, runtime.NumCPU())

// childEnv pins the child's parallelism and provenance: a fixed
// WITAG_GIT_SHA keeps the binary from shelling out to git.
func childEnv() []string {
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers), "WITAG_GIT_SHA=perfbench")
}

// buildBench compiles cmd/witag-bench from the checkout at root into out
// and returns the binary's absolute path and content hash.
func buildBench(ctx context.Context, root, out string) (bin, sum string, err error) {
	if bin, err = filepath.Abs(filepath.Join(out, "witag-bench")); err != nil {
		return "", "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/witag-bench")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("go build ./cmd/witag-bench: %w", err)
	}
	f, err := os.Open(bin)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", "", err
	}
	return bin, hex.EncodeToString(h.Sum(nil)), nil
}

// setupSamples times n executions of `witag-bench -version`: process
// start, runtime and package initialisation, flag parsing and exit.
func setupSamples(ctx context.Context, bin string, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, bin, "-version")
		cmd.Env = childEnv()
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("witag-bench -version: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// childRun is one timed witag-bench process and what its artifacts say.
type childRun struct {
	wallS, cpuS, rssMiB float64
	counters            map[string]int64
	digest              string
	// Instrumentation output of an observed workload.
	traceEvents, timelineWindows, exportBytes int64
	// err is the first failed correctness check; nil when all passed.
	err error
}

// tailBuffer keeps the last 4 KiB written to it, for error messages.
type tailBuffer struct{ b []byte }

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	if len(t.b) > 4096 {
		t.b = t.b[len(t.b)-4096:]
	}
	return len(p), nil
}

// runChild runs workload w once at seed with its artifacts in dir (which
// it empties first), timing the process from outside. A run that exits
// non-zero or whose artifacts fail a check is returned with err set; the
// returned error is reserved for failures to run at all.
func runChild(ctx context.Context, bin string, w workload, seed int64, dir string) (childRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return childRun{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return childRun{}, err
	}
	args := append([]string{}, w.args...)
	args = append(args, "-seed", fmt.Sprint(seed), "-parallel", fmt.Sprint(workers), "-json", dir)
	if w.observed {
		args = append(args, "-timeline", "-log", filepath.Join(dir, "LOG.jsonl"),
			"-trace-out", filepath.Join(dir, "trace"), "-trace-cap", fmt.Sprint(observedTraceCap))
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = childEnv()
	var stderr tailBuffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if ctx.Err() != nil {
		return childRun{}, ctx.Err()
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return childRun{}, fmt.Errorf("%s: %w", w.name, err)
	}
	run := childRun{wallS: wall.Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.cpuS = seconds(ru.Utime) + seconds(ru.Stime)
		run.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		run.err = fmt.Errorf("%s: %v: %s", w.name, err, bytes.TrimSpace(stderr.b))
		return run, nil
	}
	if err := checkArtifacts(&run, w, dir); err != nil {
		run.err = fmt.Errorf("%s: %w", w.name, err)
	}
	return run, nil
}

func seconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// metricsDoc is the part of BENCH_<x>.metrics.json the checks read.
type metricsDoc struct {
	Metrics struct {
		Counters   map[string]int64           `json:"counters"`
		Histograms map[string]json.RawMessage `json:"histograms"`
		Volatile   map[string]bool            `json:"volatile"`
	} `json:"metrics"`
}

// checkArtifacts parses what the child wrote, fills run's counters,
// digest and instrumentation totals, and checks the trial and round
// accounting.
func checkArtifacts(run *childRun, w workload, dir string) error {
	series, err := os.ReadFile(filepath.Join(dir, "BENCH_"+w.experiment+".json"))
	if err != nil {
		return err
	}
	metrics, err := os.ReadFile(filepath.Join(dir, "BENCH_"+w.experiment+".metrics.json"))
	if err != nil {
		return err
	}
	prof, err := os.ReadFile(filepath.Join(dir, "PROF_"+w.experiment+".json"))
	if err != nil {
		return err
	}
	if !json.Valid(prof) {
		return fmt.Errorf("PROF_%s.json does not parse", w.experiment)
	}
	var m metricsDoc
	if err := json.Unmarshal(metrics, &m); err != nil {
		return fmt.Errorf("BENCH_%s.metrics.json: %w", w.experiment, err)
	}
	c := m.Metrics.Counters
	run.counters = c
	switch {
	case c["runner.trials_failed"] != 0:
		return fmt.Errorf("%d trials failed", c["runner.trials_failed"])
	case c["runner.trials_done"] != c["runner.trials_started"]:
		return fmt.Errorf("%d trials done of %d started", c["runner.trials_done"], c["runner.trials_started"])
	case c["runner.trials_started"] != w.trials:
		return fmt.Errorf("%d trials started, want %d", c["runner.trials_started"], w.trials)
	case c["core.rounds"] <= 0:
		return fmt.Errorf("no query rounds recorded")
	case w.rounds > 0 && c["core.rounds"] != w.rounds:
		return fmt.Errorf("%d query rounds, want %d", c["core.rounds"], w.rounds)
	}
	if run.digest, err = scienceDigest(series, metrics); err != nil {
		return err
	}
	if !w.observed {
		return nil
	}
	return checkObserved(run, w, dir)
}

// checkObserved parses every line of the observed workload's timeline,
// log and trace exports and totals them.
func checkObserved(run *childRun, w workload, dir string) error {
	for _, f := range []struct {
		path string
		line func([]byte) error
	}{
		{filepath.Join(dir, "TL_"+w.experiment+".jsonl"), func(b []byte) error {
			var rec struct{ Kind string }
			if err := json.Unmarshal(b, &rec); err != nil {
				return err
			}
			if rec.Kind == "logical" {
				run.timelineWindows++
			}
			return nil
		}},
		{filepath.Join(dir, "LOG.jsonl"), validJSON},
		{filepath.Join(dir, "trace", "TRACE_"+w.experiment+".jsonl"), func(b []byte) error {
			run.traceEvents++
			return validJSON(b)
		}},
	} {
		if err := eachLine(f.path, f.line); err != nil {
			return err
		}
		fi, err := os.Stat(f.path)
		if err != nil {
			return err
		}
		run.exportBytes += fi.Size()
	}
	if run.traceEvents == 0 || run.timelineWindows == 0 {
		return fmt.Errorf("observed run exported %d trace events and %d timeline windows", run.traceEvents, run.timelineWindows)
	}
	return nil
}

func validJSON(b []byte) error {
	if !json.Valid(b) {
		return fmt.Errorf("invalid JSON line %.80q", b)
	}
	return nil
}

// eachLine calls fn on every non-empty line of path.
func eachLine(path string, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			return fmt.Errorf("%s:%d: %w", filepath.Base(path), n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}

// scienceDigest hashes what a run computed, not when or by whom: the
// series of BENCH_<x>.json without its provenance envelope, together with
// the deterministic (non-volatile) counters and histograms of the metrics
// artifact. Numbers keep their literal digits and object keys are sorted,
// so formatting never moves the digest and any changed value does.
func scienceDigest(seriesJSON, metricsJSON []byte) (string, error) {
	var s struct {
		Series json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal(seriesJSON, &s); err != nil {
		return "", fmt.Errorf("series artifact: %w", err)
	}
	if s.Series == nil {
		return "", fmt.Errorf("series artifact has no series")
	}
	series, err := canonical(s.Series)
	if err != nil {
		return "", fmt.Errorf("series artifact: %w", err)
	}
	var m metricsDoc
	if err := json.Unmarshal(metricsJSON, &m); err != nil {
		return "", fmt.Errorf("metrics artifact: %w", err)
	}
	doc := struct {
		Series     any              `json:"series"`
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]any   `json:"histograms"`
	}{Series: series, Counters: map[string]int64{}, Histograms: map[string]any{}}
	for name, v := range m.Metrics.Counters {
		if !m.Metrics.Volatile[name] {
			doc.Counters[name] = v
		}
	}
	for name, raw := range m.Metrics.Histograms {
		if m.Metrics.Volatile[name] {
			continue
		}
		if doc.Histograms[name], err = canonical(raw); err != nil {
			return "", fmt.Errorf("metrics artifact: %s: %w", name, err)
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// canonical decodes raw JSON keeping each number's literal text.
func canonical(raw []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// digestLedger remembers every science digest seen per binary,
// experiment and seed, in a file under the output directory, so a run
// disagreeing with any earlier run of the same binary fails — across
// reps, across invocations, and between coding-sweep and coding-observed,
// which share an experiment.
type digestLedger struct {
	path string
	seen map[string]string
}

func openLedger(path string) *digestLedger {
	l := &digestLedger{path: path, seen: map[string]string{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &l.seen); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ignoring unreadable %s: %v\n", path, err)
			l.seen = map[string]string{}
		}
	}
	return l
}

// check records digest under key, or compares it with the recorded one.
func (l *digestLedger) check(key, digest string) error {
	if prev, ok := l.seen[key]; ok {
		if prev != digest {
			return fmt.Errorf("science digest %.12s differs from %.12s recorded for %s", digest, prev, key)
		}
		return nil
	}
	l.seen[key] = digest
	b, err := json.MarshalIndent(l.seen, "", "  ")
	if err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}
