package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Live campaign HTTP surface. A process runs one campaign, and its server
// answers GET and HEAD on:
//
//	/status       the campaign's status JSON
//	/metrics      Prometheus text (default) or ?format=json snapshot
//	/events       SSE stream of progress/phase/anomaly/status events
//	/timeseries   windowed metric time-series JSON (?last=N)
//	/healthz      liveness (always 200 while the process serves)
//	/readyz       readiness (503 once shutdown begins)
//
// plus /debug/vars (the command line, the runtime's MemStats and the
// campaign's snapshot under "witag", as expvar laid them out) and the
// runtime profiles at /debug/pprof/ (pprof.go). The server keeps no
// process-global state, so several coexist in one process.

// writeJSON writes v as an indented JSON response.
func writeJSON(w *response, v any) {
	w.set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeVars writes the /debug/vars table: the keys expvar published by
// default, in its sorted order, then the snapshot under "witag".
func writeVars(w io.Writer, snap Snapshot) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cmdline, _ := json.Marshal(os.Args)
	memstats, _ := json.Marshal(ms)
	witag, _ := json.Marshal(snap)
	fmt.Fprintf(w, "{\n%q: %s,\n%q: %s,\n%q: %s\n}\n", "cmdline", cmdline, "memstats", memstats, "witag", witag)
}

// Server is a running observability listener over one campaign.
type Server struct {
	// Addr is the bound address (useful with ":0").
	Addr netip.AddrPort
	camp *Campaign
	ln   *Listener
	done chan error // the accept loop's result

	stopping atomic.Bool // set by Shutdown: /readyz answers 503

	mu       sync.Mutex
	conns    map[*os.File]struct{} // live connections, closed by Close
	closed   bool
	handlers sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// Serve serves c's endpoints on ln in a background goroutine. The server
// owns ln from here on: Close closes it.
func Serve(ln *Listener, c *Campaign) *Server {
	s := &Server{Addr: ln.Addr(), camp: c, ln: ln, done: make(chan error, 1), conns: map[*os.File]struct{}{}}
	go func() { s.done <- s.accept() }()
	return s
}

// accept serves each connection ln accepts on a goroutine of its own
// until Close. A failed accept other than a closed listener, such as
// running out of file descriptors, is retried after a pause that doubles
// up to a second.
func (s *Server) accept() error {
	var pause time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if errors.Is(err, os.ErrClosed) {
				return err
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			time.Sleep(pause)
			continue
		}
		pause = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn answers conn's one request and closes it.
func (s *Server) serveConn(conn *os.File) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.handlers.Done()
	}()
	conn.SetReadDeadline(time.Now().Add(headerTimeout))
	req, err := readRequest(conn)
	var refused *statusError
	if err != nil && !errors.As(err, &refused) {
		conn.Close() // nothing to answer: the client sent nothing, or too slowly
		return
	}
	w := &response{conn: conn, status: 200}
	if refused != nil {
		w.error(refused.status, refused.msg)
		if refused.allow != "" {
			w.set("Allow", refused.allow)
		}
	} else {
		w.head = req.method == "HEAD"
		s.route(w, req)
	}
	if w.finish() == nil && refused != nil {
		// Drain what the client may still be sending, so closing with
		// unread input does not reset the connection before it reads the
		// refusal.
		if closeWrite(conn) == nil {
			conn.SetReadDeadline(time.Now().Add(lingerTimeout))
			io.Copy(io.Discard, io.LimitReader(conn, maxHead+maxSymbolBody))
		}
	}
	conn.Close()
	if w.gone != nil {
		<-w.gone
	}
}

// Shutdown begins the serving process's shutdown: /readyz answers 503
// from now on, and the campaign's event broker closes, so live SSE
// streams end. The listener keeps serving until Close.
func (s *Server) Shutdown() {
	s.stopping.Store(true)
	s.camp.Events.Close()
}

// Close closes the listener and every live connection, and waits for the
// accept loop and every handler to return. It is idempotent and safe to
// race — CLIs hook it on both context cancellation and a defer, and
// whichever fires second gets the same result once the first is done.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		err := s.ln.Close()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		if serveErr := <-s.done; err == nil {
			err = serveErr
		}
		s.handlers.Wait()
		s.closeErr = err
	})
	return s.closeErr
}

// route answers r on w over the server's campaign.
func (s *Server) route(w *response, r *request) {
	c := s.camp
	switch r.path {
	case "/":
		w.text("witag observability: /status /metrics /events /timeseries /healthz /readyz /debug/vars /debug/pprof/\n")
	case "/status":
		writeJSON(w, c.Status())
	case "/metrics":
		snap := c.Registry.Snapshot()
		if r.query.Get("format") == "json" {
			writeJSON(w, snap)
			return
		}
		w.set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = snap.WritePrometheus(w)
	case "/events":
		w.set("Content-Type", "text/event-stream")
		w.set("Cache-Control", "no-cache")
		if gone, ok := w.stream(); ok {
			c.Events.ServeSSE(w, gone, DefaultEventQueue)
		}
	case "/timeseries":
		tl := c.TimelineRef()
		if tl == nil {
			w.error(404, "campaign has no timeline (run with -timeline)")
			return
		}
		wins := tl.Windows()
		if lastStr := r.query.Get("last"); lastStr != "" {
			var last int
			if _, err := fmt.Sscanf(lastStr, "%d", &last); err != nil || last < 0 {
				w.error(400, "bad last parameter")
				return
			}
			if last < len(wins) {
				wins = wins[len(wins)-last:]
			}
		}
		writeJSON(w, TimeseriesResponse{
			Campaign:     c.ID,
			WindowTrials: tl.Config().WindowTrials,
			Total:        tl.Total(),
			Dropped:      tl.Dropped(),
			Windows:      wins,
		})
	case "/healthz":
		w.text("ok\n")
	case "/readyz":
		if s.stopping.Load() {
			w.error(503, "shutting down")
			return
		}
		w.text("ready\n")
	case "/debug/vars":
		w.set("Content-Type", "application/json; charset=utf-8")
		writeVars(w, c.Registry.Snapshot())
	default:
		if !routePprof(w, r) {
			w.error(404, "404 page not found")
		}
	}
}

// TimeseriesResponse is the /timeseries payload: the campaign's retained
// timeline windows plus the ring's accounting, so a poller knows when
// windows were dropped between fetches.
type TimeseriesResponse struct {
	Campaign     string           `json:"campaign"`
	WindowTrials int              `json:"window_trials"`
	Total        int              `json:"total"`
	Dropped      int              `json:"dropped"`
	Windows      []TimelineWindow `json:"windows"`
}
