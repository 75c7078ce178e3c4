package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"witag/internal/obs"
)

// waitFor polls cond until it holds or a few seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPollRendersTheCampaign serves a live campaign, moves its counters
// and publishes an anomaly: the frame must show the campaign's id, state,
// progress and the anomaly, and once the server is gone the next poll
// must show the row as lost.
func TestPollRendersTheCampaign(t *testing.T) {
	camp := obs.NewCampaign("bench", obs.CampaignOptions{})
	ln, err := obs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := obs.Serve(ln, camp)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := &app{base: "http://" + srv.Addr.String(), http: &http.Client{Timeout: 5 * time.Second}}

	camp.ProgressStart(8)
	camp.Observer.Runner.TrialsDone.Add(3)
	camp.ProgressDone()
	camp.Registry.Counter("core.bits").Add(1000)
	if err := a.poll(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the SSE watcher", func() bool { return camp.Events.Subscribers() == 1 })
	camp.PublishAnomaly("burst_loss", "9 consecutive lost rounds", 41)
	waitFor(t, "the anomaly", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.anoms) == 1
	})
	camp.Registry.Counter("core.bits").Add(500)
	if err := a.poll(ctx); err != nil {
		t.Fatal(err)
	}

	frame := a.render(time.Second)
	for _, want := range []string{"bench ", " running ", "3/8", "burst_loss", "trial=41", "9 consecutive lost rounds"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame lacks %q:\n%s", want, frame)
		}
	}

	srv.Close()
	if err := a.poll(ctx); err == nil {
		t.Fatal("poll of a closed server succeeded")
	}
	if frame := a.render(time.Second); !strings.Contains(frame, "bench      lost ") {
		t.Errorf("after Close the row must read lost:\n%s", frame)
	}
}

// TestPollLosesTheRowOnABadStatus checks that a /status answering other
// than 200 fails the poll and marks the running row lost, as a server
// that stopped answering does.
func TestPollLosesTheRowOnABadStatus(t *testing.T) {
	var failing atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/status" && failing.Load():
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
		case r.URL.Path == "/status":
			w.Write([]byte(`{"id":"bench","state":"running","done":1,"total":2}`))
		case r.URL.Path == "/metrics":
			w.Write([]byte(`{}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	a := &app{base: ts.URL, http: ts.Client()}
	if err := a.poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if frame := a.render(time.Second); !strings.Contains(frame, "bench      running ") {
		t.Fatalf("a good /status must read running:\n%s", frame)
	}
	failing.Store(true)
	if err := a.poll(context.Background()); err == nil || !strings.Contains(err.Error(), "/status: 503") {
		t.Fatalf("poll of a 503 /status returned %v, want its error", err)
	}
	if frame := a.render(time.Second); !strings.Contains(frame, "bench      lost ") {
		t.Errorf("after a 503 /status the row must read lost:\n%s", frame)
	}
}
