package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// Broker fans structured events out to live subscribers (the SSE clients
// of /events). It is strictly a sink on the simulation side: Publish
// never blocks, so a slow or stalled subscriber can never back-pressure
// a worker goroutine. Each subscriber owns a bounded queue;
// when it is full the event is dropped for that subscriber and the drop
// counter advances — live streaming is best-effort by design, the
// authoritative record is the metrics registry and the trace ring.
type Broker struct {
	// Published counts events accepted by Publish; Dropped counts
	// per-subscriber queue overflows. Both are optional (nil-safe) and
	// registered volatile by Campaign: delivery is scheduling-dependent.
	Published *Counter
	Dropped   *Counter

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

// BrokerEvent is one published event: a kind tag ("progress", "phase",
// "anomaly", "status") and its JSON-encoded payload.
type BrokerEvent struct {
	Kind string
	Data []byte
}

type subscriber struct {
	ch chan BrokerEvent
}

// DefaultEventQueue bounds a subscriber's queue when Subscribe is called
// with buffer <= 0.
const DefaultEventQueue = 64

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{subs: make(map[*subscriber]struct{})}
}

// Subscribe registers a new subscriber with a bounded queue and returns
// its channel plus a cancel function. The channel closes when the
// subscriber cancels or the broker closes; cancel is idempotent. A nil
// broker returns a closed channel.
func (b *Broker) Subscribe(buffer int) (<-chan BrokerEvent, func()) {
	if buffer <= 0 {
		buffer = DefaultEventQueue
	}
	if b == nil {
		ch := make(chan BrokerEvent)
		close(ch)
		return ch, func() {}
	}
	s := &subscriber{ch: make(chan BrokerEvent, buffer)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(s.ch)
		return s.ch, func() {}
	}
	b.subs[s] = struct{}{}
	b.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			if _, ok := b.subs[s]; ok {
				delete(b.subs, s)
				close(s.ch)
			}
			b.mu.Unlock()
		})
	}
	return s.ch, cancel
}

// Publish JSON-encodes v and enqueues it on every subscriber, dropping
// the event (and counting the drop) for any subscriber whose queue is
// full. Nil-safe; publishing to a closed broker is a no-op.
func (b *Broker) Publish(kind string, v any) {
	if b == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	ev := BrokerEvent{Kind: kind, Data: data}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.Published.Inc()
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			b.Dropped.Inc()
		}
	}
}

// Subscribers returns the current subscriber count (0 for nil).
func (b *Broker) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close closes every subscriber channel and rejects future subscriptions
// and publishes. Idempotent and nil-safe.
func (b *Broker) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		delete(b.subs, s)
		close(s.ch)
	}
}

// ServeSSE streams the broker's events to w as server-sent events until
// the client disconnects or the broker closes. Each event renders as
// "event: <kind>" + "data: <json>" frames; a comment frame is written
// first so proxies flush headers immediately.
func (b *Broker) ServeSSE(w http.ResponseWriter, r *http.Request, queue int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := b.Subscribe(queue)
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": stream open\n\n")
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return // broker closed mid-stream
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, ev.Data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
