// Package obs is the simulator's deterministic observability layer:
// a zero-allocation metrics registry, a bounded trace recorder, a live
// progress reporter and the HTTP surfaces (Prometheus text, expvar,
// pprof) that expose them.
//
// The design constraint that shapes everything here is the worker-count
// determinism contract (DESIGN.md §8): attaching instrumentation must not
// change a single bit of any experiment output, and the *instrumentation
// itself* must be reproducible. Concretely:
//
//   - No instrument ever draws from an RNG or branches on shared mutable
//     state; counters and histograms are passive atomic sinks.
//   - Histograms are integer-valued. Atomic float summation is not
//     associative, so a float histogram's sum would drift in its last ulp
//     with worker interleaving; int64 addition is exactly commutative, so
//     bucket counts *and* sums are identical for 1 and NumCPU workers.
//   - Wall-clock instruments (trial wall time, progress rates) are
//     registered as *volatile* and excluded from Snapshot.Deterministic,
//     which is the view the determinism suite compares across worker
//     counts.
//
// Hot-path cost when attached is one atomic add per event; when detached
// (nil observer) it is a single pointer test.
package obs

import (
	"sort"
	"sync"
)

// Counter is a monotonically increasing atomic counter, in one lane or in
// Lanes lanes (see laneCells) that reads sum.
type Counter struct {
	laneCells
}

// Add increments the counter by n in its first lane. Nil counters are
// silently ignored so partially wired instrumentation never panics.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.cells[0].Add(n)
	}
}

// AddLane increments the counter by n in writer id's lane (nil-safe).
func (c *Counter) AddLane(id int, n int64) {
	if c != nil {
		c.lane(id)[0].Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count, summed over the lanes (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.total(0)
}

// Registry owns a process- or experiment-scoped set of named instruments.
// Registration takes a lock and may allocate; lookups of existing names
// and all instrument updates are lock-free. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	volatile map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		volatile: make(map[string]bool),
	}
}

// Option tags an instrument at registration time.
type Option func(r *Registry, name string)

// Volatile marks an instrument as wall-clock- or scheduling-dependent.
// Volatile instruments appear in snapshots and on the HTTP surfaces but
// are dropped by Snapshot.Deterministic, the view the determinism suite
// compares across worker counts.
func Volatile(r *Registry, name string) { r.volatile[name] = true }

// Counter returns the counter registered under name, creating it on first
// use. Repeated registrations return the same instrument.
func (r *Registry) Counter(name string, opts ...Option) *Counter {
	return r.counter(name, 1, opts...)
}

// counter is Counter with lanes lanes (1 or Lanes) on first registration.
func (r *Registry) counter(name string, lanes int, opts ...Option) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{newLaneCells(1, lanes)}
		r.counters[name] = c
	}
	for _, o := range opts {
		o(r, name)
	}
	return c
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use. Later registrations return
// the existing instrument regardless of the bounds they pass.
func (r *Registry) Histogram(name string, bounds []int64, opts ...Option) *Histogram {
	return r.histogram(name, bounds, 1, opts...)
}

// histogram is Histogram with lanes lanes (1 or Lanes) on first
// registration.
func (r *Registry) histogram(name string, bounds []int64, lanes int, opts ...Option) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds, lanes)
		r.hists[name] = h
	}
	for _, o := range opts {
		o(r, name)
	}
	return h
}

// Snapshot captures a point-in-time copy of every instrument. It is safe
// to call concurrently with updates; each instrument is read atomically
// (the snapshot as a whole is not a cross-instrument atomic cut, which
// the deterministic view never needs — it is only compared at quiescence).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Volatile:   make(map[string]bool, len(r.volatile)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	for name := range r.volatile {
		s.Volatile[name] = true
	}
	return s
}

// names returns every registered instrument name, sorted, for the
// Prometheus exporter's stable output order.
func (s Snapshot) names() (counters, hists []string) {
	for n := range s.Counters {
		counters = append(counters, n)
	}
	for n := range s.Histograms {
		hists = append(hists, n)
	}
	sort.Strings(counters)
	sort.Strings(hists)
	return
}
