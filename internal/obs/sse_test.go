package obs

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// The broker's contract (satellite: SSE coverage under -race): Publish
// never blocks, slow clients lose events to bounded queues with the drop
// counted, cancel and Close are idempotent, and no server goroutine
// outlives its client.

func TestBrokerFanOutToManyClients(t *testing.T) {
	b := NewBroker()
	reg := NewRegistry()
	b.Published = reg.Counter("events.published", Volatile)
	b.Dropped = reg.Counter("events.dropped", Volatile)

	const clients, events = 8, 20
	type recv struct {
		ch     <-chan BrokerEvent
		cancel func()
	}
	var rs []recv
	for i := 0; i < clients; i++ {
		ch, cancel := b.Subscribe(events + 1)
		rs = append(rs, recv{ch, cancel})
	}
	for i := 0; i < events; i++ {
		b.Publish("tick", map[string]int{"i": i})
	}
	b.Close()

	for ci, r := range rs {
		var got []BrokerEvent
		for ev := range r.ch {
			got = append(got, ev)
		}
		if len(got) != events {
			t.Fatalf("client %d received %d events, want %d", ci, len(got), events)
		}
		for i, ev := range got {
			if ev.Kind != "tick" || string(ev.Data) != fmt.Sprintf(`{"i":%d}`, i) {
				t.Fatalf("client %d event %d = %q %q", ci, i, ev.Kind, ev.Data)
			}
		}
		r.cancel() // after close: must be a safe no-op
	}
	if got := b.Published.Value(); got != events {
		t.Errorf("published = %d, want %d", got, events)
	}
	if got := b.Dropped.Value(); got != 0 {
		t.Errorf("dropped = %d, want 0 (all queues were large enough)", got)
	}
}

func TestBrokerSlowClientDropsWithoutBlocking(t *testing.T) {
	b := NewBroker()
	reg := NewRegistry()
	b.Published = reg.Counter("events.published", Volatile)
	b.Dropped = reg.Counter("events.dropped", Volatile)

	slow, cancelSlow := b.Subscribe(4)
	fast, cancelFast := b.Subscribe(64)
	defer cancelSlow()
	defer cancelFast()

	// Publish far past the slow queue without draining it. Publish must
	// return (it never blocks) and the overflow must be counted.
	const events = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < events; i++ {
			b.Publish("tick", i)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a full subscriber queue")
	}

	if got := len(slow); got != 4 {
		t.Errorf("slow client queued %d events, want its full bound of 4", got)
	}
	if got := len(fast); got != events {
		t.Errorf("fast client queued %d events, want all %d", got, events)
	}
	if got := b.Dropped.Value(); got != events-4 {
		t.Errorf("dropped = %d, want %d (slow client's overflow)", got, events-4)
	}
	if got := b.Published.Value(); got != events {
		t.Errorf("published = %d, want %d (drops don't subtract)", got, events)
	}
}

func TestBrokerCancelAndCloseIdempotent(t *testing.T) {
	b := NewBroker()
	ch, cancel := b.Subscribe(1)
	cancel()
	cancel() // second cancel must not double-close the channel
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after cancel")
	}
	if got := b.Subscribers(); got != 0 {
		t.Fatalf("subscribers = %d after cancel, want 0", got)
	}

	b.Close()
	b.Close()                      // idempotent
	b.Publish("tick", 1)           // no-op after close
	ch2, cancel2 := b.Subscribe(1) // closed broker: closed channel
	defer cancel2()
	if _, ok := <-ch2; ok {
		t.Fatal("subscription to a closed broker delivered an event")
	}

	var nb *Broker // nil broker: everything is a safe no-op
	nb.Publish("tick", 1)
	nb.Close()
	ch3, cancel3 := nb.Subscribe(0)
	defer cancel3()
	if _, ok := <-ch3; ok {
		t.Fatal("nil broker delivered an event")
	}
}

// sseClient connects to url and returns parsed "event/data" frame pairs
// on a channel, closing it when the stream ends.
func sseClient(t *testing.T, url string) (frames <-chan [2]string, stop func()) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	out := make(chan [2]string, 256)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var kind string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				out <- [2]string{kind, strings.TrimPrefix(line, "data: ")}
			}
		}
	}()
	return out, func() { resp.Body.Close() }
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServeSSEConcurrentClientsAndCloseMidStream(t *testing.T) {
	_, c, base := serveCampaign(t, "c", 0)
	b := c.Events

	const clients, events = 4, 10
	type client struct {
		frames <-chan [2]string
		stop   func()
	}
	var cs []client
	for i := 0; i < clients; i++ {
		frames, stop := sseClient(t, base+"/events")
		cs = append(cs, client{frames, stop})
	}
	waitFor(t, "all clients subscribed", func() bool { return b.Subscribers() == clients })

	for i := 0; i < events; i++ {
		b.Publish("tick", map[string]int{"i": i})
	}
	// Close mid-stream: every client's stream must terminate cleanly
	// after delivering what was queued.
	b.Close()

	var wg sync.WaitGroup
	for ci := range cs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			n := 0
			for fr := range cs[ci].frames {
				if fr[0] != "tick" {
					t.Errorf("client %d got kind %q, want tick", ci, fr[0])
				}
				n++
			}
			if n != events {
				t.Errorf("client %d saw %d events before close, want %d", ci, n, events)
			}
		}(ci)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("client streams did not terminate after broker Close")
	}
	for _, c := range cs {
		c.stop()
	}
}

func TestServeSSEClientDisconnectReleasesSubscription(t *testing.T) {
	_, c, base := serveCampaign(t, "c", 0)
	b := c.Events

	_, stop := sseClient(t, base+"/events")
	waitFor(t, "client subscribed", func() bool { return b.Subscribers() == 1 })

	// Dropping the connection must unwind ServeSSE (the server's read on
	// the connection returns) and remove the subscriber — no leak, no
	// stuck goroutine. Nothing is published: the hang-up alone must end
	// the stream.
	stop()
	waitFor(t, "subscription released after disconnect", func() bool { return b.Subscribers() == 0 })
}
