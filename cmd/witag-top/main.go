// Command witag-top is a live terminal dashboard over a running witag
// campaign — the `top` for Monte-Carlo sweeps. Point it at the
// -metrics-addr of a witag-bench or witag-sim run, which serves that
// process's one campaign, and it renders the campaign's progress bar,
// rolling BER/goodput/fault-rate with sparklines, event-drop counters and
// the latest anomalies, refreshing in place.
//
// Usage:
//
//	witag-top [-addr HOST:PORT] [-refresh DUR] [-once] [-plain] [-version]
//
// It consumes only the server's public HTTP surface: /status for the
// status row, /metrics?format=json for the counters the rolling rates
// are derived from, and the /events SSE stream for anomalies. Rates are
// deltas between successive polls:
//
//	rate     Δ runner.trials_done        per second
//	BER      Δ core.bit_errors           / Δ core.bits
//	goodput  Δ (core.bits − bit_errors)  per second, as Kb/s
//	fault%   Δ (trigger_missed+ba_lost)  / Δ core.rounds
//	drops    Δ events.dropped            (slow SSE watchers shedding load)
//
// When the server stops answering — usually because the run finished —
// a row still marked running shows as lost.
//
// -once renders a single frame (no ANSI clear, no rates that need two
// samples) and exits — usable from scripts and CI logs. -plain keeps the
// refresh loop but skips ANSI screen clearing, appending frames instead.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"witag/internal/buildinfo"
	"witag/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "campaign server address (the run's -metrics-addr)")
	refresh := flag.Duration("refresh", time.Second, "poll/redraw interval")
	once := flag.Bool("once", false, "render one frame and exit")
	plain := flag.Bool("plain", false, "no ANSI screen clearing; append frames")
	version := flag.Bool("version", false, "print build provenance (git SHA, Go version) and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "witag-top")
		return
	}
	if err := metricsAddrFormat("-addr", *addr); err != nil {
		fmt.Fprintln(os.Stderr, "witag-top:", err)
		os.Exit(2)
	}
	if *refresh <= 0 {
		fmt.Fprintln(os.Stderr, "witag-top: -refresh must be positive")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	app := &app{base: "http://" + *addr, http: &http.Client{Timeout: 5 * time.Second}}
	if err := app.run(ctx, *refresh, *once, *plain); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "witag-top:", err)
		os.Exit(1)
	}
}

// metricsAddrFormat validates that addr parses as host:port, the form of
// the -metrics-addr a run serves on, without connecting to it.
func metricsAddrFormat(flagName, addr string) error {
	if addr == "" {
		return fmt.Errorf("%s: address is required", flagName)
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("%s: %q is not host:port: %w", flagName, addr, err)
	}
	return nil
}

// historyLen bounds the rolling sample window; at a 1s refresh this is
// ~half a minute of trajectory per sparkline.
const historyLen = 32

// anomalyKeep bounds the anomaly feed shown under the row.
const anomalyKeep = 4

// sample is one polled metrics snapshot with its arrival time.
type sample struct {
	t    time.Time
	snap obs.Snapshot
}

// app is everything witag-top knows about the campaign: the last status
// row, the rolling snapshot window, and the SSE feed state.
type app struct {
	base string
	http *http.Client

	mu       sync.Mutex
	status   obs.CampaignStatus
	samples  []sample
	anoms    []obs.Anomaly
	watching bool // an SSE watcher goroutine is attached
	gone     bool // the server stopped answering
}

func (a *app) run(ctx context.Context, refresh time.Duration, once, plain bool) error {
	if err := a.poll(ctx); err != nil {
		return fmt.Errorf("cannot read the campaign at %s: %w", a.base, err)
	}
	if once {
		fmt.Print(a.render(refresh))
		return nil
	}
	tick := time.NewTicker(refresh)
	defer tick.Stop()
	for {
		if !plain {
			fmt.Print("\x1b[H\x1b[2J")
		}
		fmt.Print(a.render(refresh))
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-tick.C:
		}
		// A failed poll marks the row lost, usually because the run
		// finished; the next frame shows the last state with that note
		// rather than erroring out.
		_ = a.poll(ctx)
	}
}

// poll refreshes the status row and the metrics snapshot, and attaches
// the SSE watcher while the campaign runs and none is attached. When the
// server does not answer, the row is marked gone.
func (a *app) poll(ctx context.Context) error {
	var st obs.CampaignStatus
	if err := a.getJSON(ctx, "/status", &st); err != nil {
		a.mu.Lock()
		a.gone = true
		a.mu.Unlock()
		return err
	}
	var snap obs.Snapshot
	snapErr := a.getJSON(ctx, "/metrics?format=json", &snap)

	a.mu.Lock()
	a.status = st
	a.gone = false
	if snapErr == nil {
		a.samples = append(a.samples, sample{t: time.Now(), snap: snap})
		if len(a.samples) > historyLen {
			a.samples = a.samples[len(a.samples)-historyLen:]
		}
	}
	watch := !a.watching && st.State == "running"
	if watch {
		a.watching = true
	}
	a.mu.Unlock()

	if watch {
		go a.watchEvents(ctx)
	}
	return nil
}

func (a *app) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := a.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// watchEvents follows the campaign's SSE stream, feeding anomalies into
// the view. The stream ends when the campaign finishes or the server
// shuts down; the watcher then detaches so a later poll can re-attach if
// the campaign is still live.
func (a *app) watchEvents(ctx context.Context) {
	defer func() {
		a.mu.Lock()
		a.watching = false
		a.mu.Unlock()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/events", nil)
	if err != nil {
		return
	}
	// No client timeout here: SSE streams live for the campaign.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event string
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || data.Len() > 0 {
				a.handleEvent(event, data.String())
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
		// Comment lines (": stream open") fall through untouched.
	}
}

func (a *app) handleEvent(event, data string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch event {
	case "anomaly":
		var an obs.Anomaly
		if json.Unmarshal([]byte(data), &an) == nil {
			a.anoms = append(a.anoms, an)
			if len(a.anoms) > anomalyKeep {
				a.anoms = a.anoms[len(a.anoms)-anomalyKeep:]
			}
		}
	case "status":
		var st obs.CampaignStatus
		if json.Unmarshal([]byte(data), &st) == nil {
			a.status = st
		}
	}
}

// series derives one rolling per-poll series from the sample window:
// f(prev, cur, dt) for each consecutive pair, oldest first.
func (a *app) series(f func(prev, cur obs.Snapshot, dt float64) float64) []float64 {
	var out []float64
	for i := 1; i < len(a.samples); i++ {
		dt := a.samples[i].t.Sub(a.samples[i-1].t).Seconds()
		if dt <= 0 {
			dt = 1e-9
		}
		out = append(out, f(a.samples[i-1].snap, a.samples[i].snap, dt))
	}
	return out
}

func counterDelta(prev, cur obs.Snapshot, name string) float64 {
	return float64(cur.Counters[name] - prev.Counters[name])
}

func last(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// spark renders vals as a fixed-alphabet sparkline, scaled to its own
// min/max (a flat series renders as a low bar, not a blank).
func spark(vals []float64) string {
	const levels = "▁▂▃▄▅▆▇█"
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * 7)
		}
		if idx < 0 {
			idx = 0
		} else if idx > 7 {
			idx = 7
		}
		b.WriteRune([]rune(levels)[idx])
	}
	return b.String()
}

// bar renders a fixed-width progress bar.
func bar(done, total int64, width int) string {
	if total <= 0 {
		return strings.Repeat("-", width)
	}
	fill := int(float64(width) * float64(done) / float64(total))
	if fill > width {
		fill = width
	}
	return strings.Repeat("#", fill) + strings.Repeat("-", width-fill)
}

func (a *app) render(refresh time.Duration) string {
	a.mu.Lock()
	defer a.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "witag-top — %s  refresh %s  1 campaign(s)  %s\n\n",
		a.base, refresh, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "%-10s %-8s %-28s %9s %10s %12s %7s %6s %5s\n",
		"CAMPAIGN", "STATE", "PROGRESS", "TRIALS/S", "BER", "GOODPUT", "FAULT%", "DROPS", "ANOM")

	st := a.status
	state := st.State
	if a.gone && state == "running" {
		state = "lost"
	}

	rate := a.series(func(p, c obs.Snapshot, dt float64) float64 {
		return counterDelta(p, c, "runner.trials_done") / dt
	})
	ber := a.series(func(p, c obs.Snapshot, _ float64) float64 {
		if bits := counterDelta(p, c, "core.bits"); bits > 0 {
			return counterDelta(p, c, "core.bit_errors") / bits
		}
		return 0
	})
	goodput := a.series(func(p, c obs.Snapshot, dt float64) float64 {
		return (counterDelta(p, c, "core.bits") - counterDelta(p, c, "core.bit_errors")) / dt / 1e3
	})
	faults := a.series(func(p, c obs.Snapshot, _ float64) float64 {
		if rounds := counterDelta(p, c, "core.rounds"); rounds > 0 {
			return 100 * (counterDelta(p, c, "core.rounds_trigger_missed") + counterDelta(p, c, "core.rounds_ba_lost")) / rounds
		}
		return 0
	})
	drops := a.series(func(p, c obs.Snapshot, _ float64) float64 {
		return counterDelta(p, c, "events.dropped")
	})

	pct := 0.0
	if st.Total > 0 {
		pct = 100 * float64(st.Done) / float64(st.Total)
	}
	progress := fmt.Sprintf("[%s] %3.0f%% %d/%d", bar(st.Done, st.Total, 12), pct, st.Done, st.Total)
	fmt.Fprintf(&b, "%-10s %-8s %-28s %9.1f %10.2e %9.1fKb/s %7.1f %6.0f %5d\n",
		st.ID, state, progress, last(rate), last(ber), last(goodput), last(faults),
		last(drops), len(a.anoms))
	if len(a.samples) >= 3 {
		fmt.Fprintf(&b, "%-10s %-8s ber %-14s goodput %-14s fault %-14s drops %s\n",
			"", "", spark(ber), spark(goodput), spark(faults), spark(drops))
	}
	for _, an := range a.anoms {
		fmt.Fprintf(&b, "  ! %-12s trial=%-5d %s\n", an.Rule, an.Trial, an.Detail)
	}
	return b.String()
}
