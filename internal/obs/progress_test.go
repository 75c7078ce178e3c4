package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets concurrent draws land in one buffer without racing the
// test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// doneTrials completes n trials at once the way sim.Runner completes
// one: counted in runner.trials_done, then reported through ProgressDone.
func doneTrials(c *Campaign, n int) {
	c.Observer.Runner.TrialsDone.Add(int64(n))
	c.ProgressDone()
}

func TestProgressReportsCompletion(t *testing.T) {
	var out syncBuffer
	c := NewCampaign("job", CampaignOptions{Progress: NewProgress(&out, "runs")})
	c.MinEventInterval = time.Nanosecond
	c.ProgressStart(4)
	for i := 0; i < 4; i++ {
		doneTrials(c, 1)
	}
	c.Finish(nil)
	s := out.String()
	if !strings.Contains(s, "\rruns 4/4 (100.0%)") {
		t.Fatalf("final line missing completion: %q", s)
	}
	if !strings.HasSuffix(s, "\n") || strings.Count(s, "\n") != 1 {
		t.Fatalf("Finish must terminate the line once: %q", s)
	}
	c.Finish(nil) // idempotent: no second final line
	if got := out.String(); got != s {
		t.Fatalf("second Finish redrew: %q", got)
	}
}

func TestProgressAccumulatesAcrossStarts(t *testing.T) {
	var out syncBuffer
	c := NewCampaign("job", CampaignOptions{Progress: NewProgress(&out, "")})
	c.ProgressStart(2)
	c.ProgressStart(3)
	doneTrials(c, 5)
	c.Finish(nil)
	if s := out.String(); !strings.Contains(s, "trials 5/5") {
		t.Fatalf("multi-Start total wrong: %q", s)
	}
}

func TestProgressConcurrentDone(t *testing.T) {
	var out syncBuffer
	c := NewCampaign("job", CampaignOptions{Progress: NewProgress(&out, "")})
	const n = 64
	c.ProgressStart(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				doneTrials(c, 1)
			}
		}()
	}
	wg.Wait()
	c.Finish(nil)
	if s := out.String(); !strings.Contains(s, "trials 64/64") {
		t.Fatalf("concurrent Done lost items: %q", s)
	}
	if st := c.Status(); st.Done != n || st.Total != n {
		t.Fatalf("status tally %d/%d, want %d/%d", st.Done, st.Total, n, n)
	}
}

// TestProgressNotesEndTheOpenLine: a note written through Notes while a
// progress line is drawn starts a line of its own (the line is ended
// first, once), a note after a note or after the final line adds no blank
// line, and the next redraw goes below the note.
func TestProgressNotesEndTheOpenLine(t *testing.T) {
	var out syncBuffer
	c := NewCampaign("job", CampaignOptions{Progress: NewProgress(&out, "runs")})
	c.MinEventInterval = time.Nanosecond
	notes := c.Progress.Notes(&out)
	c.ProgressStart(4)
	doneTrials(c, 1)
	fmt.Fprintln(notes, "trace: wrote 3 events to D")
	fmt.Fprintln(notes, "timeline: wrote 2 windows")
	doneTrials(c, 3)
	fmt.Fprintln(notes, "witag-bench: fig5: failed")
	c.Finish(nil)
	fmt.Fprintln(notes, "trace: wrote 0 events to E")
	lines := strings.Split(out.String(), "\n")
	want := []string{"\rruns 1/4 ", "trace: wrote 3 events to D", "timeline: wrote 2 windows",
		"\rruns 4/4 ", "witag-bench: fig5: failed", "\rruns 4/4 ", "trace: wrote 0 events to E", ""}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d: %q", len(lines), len(want), out.String())
	}
	for i, w := range want {
		ok := lines[i] == w
		if strings.HasPrefix(w, "\r") {
			ok = strings.HasPrefix(lines[i], w) // rate and ETA read the wall clock
		}
		if !ok {
			t.Fatalf("line %d = %q, want %q: %q", i, lines[i], w, out.String())
		}
	}
	if w := io.Writer(&out); (*Progress)(nil).Notes(w) != w {
		t.Fatal("a nil Progress must hand notes straight to the writer")
	}
}

func TestNilProgressIsInert(t *testing.T) {
	var p *Progress
	p.draw(ProgressSnapshot{Done: 3, Total: 10}, true)
	var c *Campaign
	c.ProgressStart(10)
	c.ProgressDone()
	c.Finish(nil)

	// A campaign without a reporter keeps its tally silently.
	q := NewCampaign("quiet", CampaignOptions{})
	q.ProgressStart(2)
	doneTrials(q, 2)
	q.Finish(nil)
	if st := q.Status(); st.Done != 2 || st.Total != 2 {
		t.Fatalf("quiet tally %d/%d, want 2/2", st.Done, st.Total)
	}
}
