package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a live campaign progress reporter: trials done/total,
// rate and ETA, redrawn in place on a terminal-style writer. It is safe
// for concurrent Done calls from worker goroutines and rate-limits its
// own output, so attaching it to a tight trial loop costs two atomic ops
// per item between redraws. It reads the wall clock and is therefore
// strictly a sink: nothing in the simulation observes it. A nil
// *Progress ignores every call.
type Progress struct {
	// Out receives the redrawn line (normally os.Stderr).
	Out io.Writer
	// Label prefixes every line ("trials" when empty).
	Label string
	// MinInterval is the minimum time between redraws (default 200 ms).
	MinInterval time.Duration

	total   atomic.Int64
	done    atomic.Int64
	startNs atomic.Int64
	lastNs  atomic.Int64

	mu sync.Mutex // serialises writes to Out
}

// NewProgress returns a reporter writing to out.
func NewProgress(out io.Writer, label string) *Progress {
	return &Progress{Out: out, Label: label}
}

// Start registers n more items of expected work and starts the clock on
// first use. Successive calls accumulate, so one reporter can span a
// multi-experiment campaign.
func (p *Progress) Start(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.total.Add(int64(n))
	p.startNs.CompareAndSwap(0, time.Now().UnixNano())
}

// Done records n completed items and redraws if the rate limit allows.
func (p *Progress) Done(n int) {
	if p == nil {
		return
	}
	done := p.done.Add(int64(n))
	now := time.Now().UnixNano()
	min := p.MinInterval
	if min <= 0 {
		min = 200 * time.Millisecond
	}
	last := p.lastNs.Load()
	if now-last < int64(min) && done < p.total.Load() {
		return
	}
	if !p.lastNs.CompareAndSwap(last, now) {
		return // another worker is redrawing
	}
	p.draw(done, now, false)
}

// Finish forces a final redraw and terminates the line.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.draw(p.done.Load(), time.Now().UnixNano(), true)
}

func (p *Progress) draw(done, nowNs int64, final bool) {
	if p.Out == nil {
		return
	}
	total := p.total.Load()
	label := p.Label
	if label == "" {
		label = "trials"
	}
	elapsed := time.Duration(nowNs - p.startNs.Load())
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(done) / s
	}
	eta := "?"
	if rate > 0 && total > done {
		eta = (time.Duration(float64(total-done) / rate * float64(time.Second))).Round(time.Second).String()
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	p.mu.Lock()
	fmt.Fprintf(p.Out, "\r%s %d/%d (%.1f%%) %.1f/s ETA %s   ", label, done, total, pct, rate, eta)
	if final {
		fmt.Fprintln(p.Out)
	}
	p.mu.Unlock()
}
