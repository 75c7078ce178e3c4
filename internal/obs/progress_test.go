package obs

import (
	"bytes"
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

func TestProgressReportsCompletion(t *testing.T) {
	var out syncBuffer
	c := NewCampaign("job", CampaignOptions{Progress: NewProgress(&out, "runs")})
	c.MinEventInterval = time.Nanosecond
	c.ProgressStart(4)
	for i := 0; i < 4; i++ {
		c.ProgressDone(1)
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
	c.ProgressDone(5)
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
				c.ProgressDone(1)
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

func TestNilProgressIsInert(t *testing.T) {
	var p *Progress
	p.draw(ProgressSnapshot{Done: 3, Total: 10}, true)
	var c *Campaign
	c.ProgressStart(10)
	c.ProgressDone(3)
	c.Finish(nil)

	// A campaign without a reporter keeps its tally silently.
	q := NewCampaign("quiet", CampaignOptions{})
	q.ProgressStart(2)
	q.ProgressDone(2)
	q.Finish(nil)
	if st := q.Status(); st.Done != 2 || st.Total != 2 {
		t.Fatalf("quiet tally %d/%d, want 2/2", st.Done, st.Total)
	}
}
