package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Live campaign HTTP surface. A process runs one campaign, and its server
// answers:
//
//	/campaigns                    a one-row list of the campaign's status JSON
//	/campaigns/<id>               the campaign's status JSON
//	/campaigns/<id>/metrics       Prometheus text (default) or ?format=json snapshot
//	/campaigns/<id>/events        SSE stream of progress/phase/anomaly/status events
//	/campaigns/<id>/timeseries    windowed metric time-series JSON (?kind=logical|wall, ?last=N)
//	/metrics                      the campaign's metrics as unlabelled Prometheus text
//	/healthz                      liveness (always 200 while the process serves)
//	/readyz                       readiness (503 once shutdown begins)
//
// plus /debug/vars (the expvar table with the campaign's snapshot under
// "witag") and the net/http/pprof suite at /debug/pprof/. Any other
// campaign id gets 404. Everything hangs off a private mux, so several
// servers coexist in one process.

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// expvarSnapshotHandler mirrors expvar.Handler's output — the
// process-global published vars (cmdline, memstats, anything the embedder
// added) — and appends the snapshot under "witag". Duplicating the loop
// here avoids expvar.Publish, whose global table panics on
// re-registration, so several servers coexist in one process.
func expvarSnapshotHandler(snapshot func() Snapshot) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value.String())
		})
		snap := expvar.Func(func() any { return snapshot() })
		fmt.Fprintf(w, "%q: %s\n}\n", "witag", snap.String())
	}
}

// Server is a running observability listener over one campaign.
type Server struct {
	// Addr is the bound address (useful with ":0").
	Addr net.Addr
	camp *Campaign
	srv  *http.Server
	done chan error

	stopping  atomic.Bool // set by Shutdown: /readyz answers 503
	closeOnce sync.Once
	closeErr  error
}

// Serve binds addr and serves c's endpoints in a background goroutine.
func Serve(addr string, c *Campaign) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Addr: ln.Addr(), camp: c, done: make(chan error, 1)}
	s.srv = &http.Server{Handler: s.mux(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		err := s.srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.done <- err
	}()
	return s, nil
}

// Shutdown begins the serving process's shutdown: /readyz answers 503
// from now on, and the campaign's event broker closes, so live SSE
// streams end. The listener keeps serving until Close.
func (s *Server) Shutdown() {
	s.stopping.Store(true)
	s.camp.Events.Close()
}

// Close stops the listener and waits for the serve goroutine to exit.
// It is idempotent and safe to race — CLIs hook it on both context
// cancellation and a defer, and whichever fires second gets the same
// result without blocking on the drained done channel.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		err := s.srv.Close()
		if serveErr := <-s.done; err == nil {
			err = serveErr
		}
		s.closeErr = err
	})
	return s.closeErr
}

// mux returns the server's routes over its campaign.
func (s *Server) mux() *http.ServeMux {
	c := s.camp
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.Registry.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/campaigns", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, []CampaignStatus{c.Status()})
	})
	mux.HandleFunc("/campaigns/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
		id, sub, _ := strings.Cut(rest, "/")
		if id != c.ID {
			http.NotFound(w, r)
			return
		}
		switch sub {
		case "":
			writeJSON(w, c.Status())
		case "metrics":
			snap := c.Registry.Snapshot()
			if r.URL.Query().Get("format") == "json" {
				writeJSON(w, snap)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = snap.WritePrometheusLabeled(w, "campaign", c.ID)
		case "events":
			c.Events.ServeSSE(w, r, DefaultEventQueue)
		case "timeseries":
			tl := c.TimelineRef()
			if tl == nil {
				http.Error(w, "campaign has no timeline (run with -timeline)", http.StatusNotFound)
				return
			}
			wins := tl.Windows()
			if kind := r.URL.Query().Get("kind"); kind != "" {
				kept := wins[:0]
				for _, win := range wins {
					if win.Kind == kind {
						kept = append(kept, win)
					}
				}
				wins = kept
			}
			if lastStr := r.URL.Query().Get("last"); lastStr != "" {
				var last int
				if _, err := fmt.Sscanf(lastStr, "%d", &last); err != nil || last < 0 {
					http.Error(w, "bad last parameter", http.StatusBadRequest)
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
		default:
			http.NotFound(w, r)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.stopping.Load() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/vars", expvarSnapshotHandler(c.Registry.Snapshot))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "witag observability: /campaigns /metrics /healthz /readyz /debug/vars /debug/pprof/\n")
	})
	return mux
}

// TimeseriesResponse is the /campaigns/<id>/timeseries payload: the
// campaign's retained timeline windows plus the ring's accounting, so a
// poller knows when windows were dropped between fetches.
type TimeseriesResponse struct {
	Campaign     string           `json:"campaign"`
	WindowTrials int              `json:"window_trials"`
	Total        int              `json:"total"`
	Dropped      int              `json:"dropped"`
	Windows      []TimelineWindow `json:"windows"`
}
