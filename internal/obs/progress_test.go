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
	p := NewProgress(&out, "trials")
	p.MinInterval = time.Nanosecond
	p.Start(4)
	for i := 0; i < 4; i++ {
		p.Done(1)
	}
	p.Finish()
	s := out.String()
	if !strings.Contains(s, "trials 4/4 (100.0%)") {
		t.Fatalf("final line missing completion: %q", s)
	}
	if !strings.HasSuffix(s, "\n") {
		t.Fatalf("Finish must terminate the line: %q", s)
	}
}

func TestProgressAccumulatesAcrossStarts(t *testing.T) {
	var out syncBuffer
	p := NewProgress(&out, "")
	p.Start(2)
	p.Start(3)
	p.Done(5)
	p.Finish()
	if s := out.String(); !strings.Contains(s, "trials 5/5") {
		t.Fatalf("multi-Start total wrong: %q", s)
	}
}

func TestProgressConcurrentDone(t *testing.T) {
	var out syncBuffer
	p := NewProgress(&out, "trials")
	const n = 64
	p.Start(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				p.Done(1)
			}
		}()
	}
	wg.Wait()
	p.Finish()
	if s := out.String(); !strings.Contains(s, "trials 64/64") {
		t.Fatalf("concurrent Done lost items: %q", s)
	}
}

func TestNilProgressIsInert(t *testing.T) {
	var p *Progress
	p.Start(10)
	p.Done(3)
	p.Finish()
}
