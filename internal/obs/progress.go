package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress draws a campaign's progress tally as one line redrawn in
// place on a terminal-style writer: items done/total, rate and ETA. It
// keeps no tally and no rate limit of its own; the Campaign it is
// attached to redraws it from its ProgressDone and Finish. It reads
// the wall clock and is therefore strictly a sink: nothing in the
// simulation observes it. A nil *Progress draws nothing. Other notes
// bound for the same terminal go through Notes, so none lands on the
// tail of the redrawn line.
type Progress struct {
	// Out receives the redrawn line (normally os.Stderr).
	Out io.Writer
	// Label prefixes every line ("trials" when empty).
	Label string

	mu   sync.Mutex // serialises writes to Out and to Notes writers
	open bool       // a line is drawn and not yet ended
}

// NewProgress returns a reporter writing to out.
func NewProgress(out io.Writer, label string) *Progress {
	return &Progress{Out: out, Label: label}
}

// draw redraws the line from s; final ends it.
func (p *Progress) draw(s ProgressSnapshot, final bool) {
	if p == nil || p.Out == nil {
		return
	}
	label := p.Label
	if label == "" {
		label = "trials"
	}
	eta := "?"
	if s.RatePerS > 0 && s.Total > s.Done {
		eta = (time.Duration(float64(s.Total-s.Done) / s.RatePerS * float64(time.Second))).Round(time.Second).String()
	}
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done) / float64(s.Total)
	}
	p.mu.Lock()
	fmt.Fprintf(p.Out, "\r%s %d/%d (%.1f%%) %.1f/s ETA %s   ", label, s.Done, s.Total, pct, s.RatePerS, eta)
	if final {
		fmt.Fprintln(p.Out)
	}
	p.open = !final
	p.mu.Unlock()
}

// Notes returns a writer to w for the notes that share a terminal with
// the progress line: each write first ends the line if one is open, so a
// note always starts a line of its own. The next redraw starts a fresh
// line below the note. A nil Progress returns w itself.
func (p *Progress) Notes(w io.Writer) io.Writer {
	if p == nil {
		return w
	}
	return noteWriter{p, w}
}

type noteWriter struct {
	p *Progress
	w io.Writer
}

func (n noteWriter) Write(b []byte) (int, error) {
	n.p.mu.Lock()
	defer n.p.mu.Unlock()
	if n.p.open {
		fmt.Fprintln(n.p.Out)
		n.p.open = false
	}
	return n.w.Write(b)
}
