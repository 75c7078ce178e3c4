package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// serveCampaign builds campaign id with its core.rounds counter at rounds,
// serves it on a loopback port and closes the server when the test ends.
// It returns the server's base URL.
func serveCampaign(t *testing.T, id string, rounds int64) (*Server, *Campaign, string) {
	t.Helper()
	c := NewCampaign(id, CampaignOptions{})
	c.Registry.Counter("core.rounds").Add(rounds)
	srv, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
	return srv, c, fmt.Sprintf("http://%s", srv.Addr)
}

func TestServeEndpoints(t *testing.T) {
	_, c, base := serveCampaign(t, "c", 7)
	var want bytes.Buffer
	if err := c.Registry.Snapshot().WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "witag_core_rounds 7") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if body != want.String() {
		t.Fatalf("/metrics is not the campaign's snapshot:\n got %q\nwant %q", body, want.String())
	}

	code, body = get(t, base+"/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: code=%d", code)
	}
	var vars struct {
		Witag json.RawMessage `json:"witag"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if snap, _ := json.Marshal(c.Registry.Snapshot()); !bytes.Equal(vars.Witag, snap) {
		t.Fatalf("/debug/vars witag = %s, want the campaign's snapshot %s", vars.Witag, snap)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
	if code, _ = get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}

	if code, _ = get(t, base+"/nope"); code != 404 {
		t.Fatalf("unknown path: code=%d, want 404", code)
	}
}

// Two servers must coexist: the layer keeps no process-global state (no
// expvar.Publish, no DefaultServeMux).
func TestTwoServersCoexist(t *testing.T) {
	_, _, a := serveCampaign(t, "a", 1)
	_, _, b := serveCampaign(t, "b", 2)
	if _, body := get(t, a+"/metrics"); !strings.Contains(body, "witag_core_rounds 1") {
		t.Fatalf("server A: %q", body)
	}
	if _, body := get(t, b+"/metrics"); !strings.Contains(body, "witag_core_rounds 2") {
		t.Fatalf("server B: %q", body)
	}
}

// TestHubHTTPEndpoints covers the URLs Serve answers for its one campaign;
// they are the URLs the multi-campaign hub answered.
func TestHubHTTPEndpoints(t *testing.T) {
	srv, _, base := serveCampaign(t, "a", 5)

	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, base+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %d %q", code, body)
	}

	code, body := get(t, base+"/campaigns")
	if code != 200 {
		t.Fatalf("/campaigns = %d", code)
	}
	var list []CampaignStatus
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("/campaigns not JSON: %v", err)
	}
	if len(list) != 1 || list[0].ID != "a" || list[0].State != "running" {
		t.Fatalf("/campaigns = %+v, want the one campaign", list)
	}

	if code, body := get(t, base+"/campaigns/a"); code != 200 || !strings.Contains(body, `"id": "a"`) {
		t.Errorf("/campaigns/a = %d %q", code, body)
	}
	for _, path := range []string{"/campaigns/nope", "/campaigns/", "/campaigns/nope/metrics", "/campaigns/a/bogus"} {
		if code, _ := get(t, base+path); code != 404 {
			t.Errorf("%s = %d, want 404", path, code)
		}
	}

	// Per-campaign Prometheus text carries the campaign label on every
	// series; /metrics carries none.
	_, prom := get(t, base+"/campaigns/a/metrics")
	if !strings.Contains(prom, `witag_core_rounds{campaign="a"} 5`) {
		t.Errorf("labeled metrics missing counter:\n%s", prom)
	}
	code, jsonBody := get(t, base+"/campaigns/a/metrics?format=json")
	if code != 200 {
		t.Fatalf("metrics?format=json = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(jsonBody), &snap); err != nil {
		t.Fatalf("metrics JSON unparseable: %v", err)
	}
	if snap.Counters["core.rounds"] != 5 {
		t.Errorf("JSON snapshot core.rounds = %d, want 5", snap.Counters["core.rounds"])
	}
	if _, body := get(t, base+"/metrics"); !strings.Contains(body, "witag_core_rounds 5") {
		t.Errorf("/metrics missing series:\n%s", body)
	}

	srv.Shutdown()
	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after Shutdown = %d, want 503", code)
	}
	if code, _ := get(t, base+"/healthz"); code != 200 {
		t.Errorf("/healthz after Shutdown = %d, want 200 (liveness is not readiness)", code)
	}
}

// TestHubTimeseriesEndpoint covers /campaigns/<id>/timeseries, the URL the
// multi-campaign hub answered it at.
func TestHubTimeseriesEndpoint(t *testing.T) {
	_, a, base := serveCampaign(t, "a", 0)

	// No timeline attached: 404 with a hint, not an empty 200.
	if code, body := get(t, base+"/campaigns/a/timeseries"); code != 404 || !strings.Contains(body, "-timeline") {
		t.Errorf("timeseries without timeline = %d %q, want 404 with hint", code, body)
	}

	tl := NewTimeline(a.Registry, TimelineConfig{WindowTrials: 2})
	a.SetTimeline(tl)
	c := a.Registry.Counter("core.rounds")
	tl.BeginSegment()
	for i := 0; i < 3; i++ {
		c.Add(10)
		tl.NoteTrials(2*i, 2*i+2)
	}
	tl.SampleWall()

	code, body := get(t, base+"/campaigns/a/timeseries")
	if code != 200 {
		t.Fatalf("timeseries = %d", code)
	}
	var ts TimeseriesResponse
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("timeseries not JSON: %v", err)
	}
	if ts.Campaign != "a" || ts.WindowTrials != 2 || ts.Total != 4 || len(ts.Windows) != 4 {
		t.Fatalf("timeseries = campaign %q window %d total %d windows %d",
			ts.Campaign, ts.WindowTrials, ts.Total, len(ts.Windows))
	}

	_, body = get(t, base+"/campaigns/a/timeseries?kind=logical")
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatal(err)
	}
	if len(ts.Windows) != 3 {
		t.Errorf("?kind=logical returned %d windows, want 3", len(ts.Windows))
	}
	for _, w := range ts.Windows {
		if w.Kind != WindowLogical {
			t.Errorf("?kind=logical leaked a %q window", w.Kind)
		}
		if w.Delta.Counters["core.rounds"] != 10 {
			t.Errorf("window delta did not survive the HTTP round-trip: %+v", w)
		}
	}

	_, body = get(t, base+"/campaigns/a/timeseries?kind=wall&last=1")
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatal(err)
	}
	if len(ts.Windows) != 1 || ts.Windows[0].Kind != WindowWall {
		t.Errorf("?kind=wall&last=1 = %+v", ts.Windows)
	}

	if code, _ := get(t, base+"/campaigns/a/timeseries?last=bogus"); code != 400 {
		t.Errorf("?last=bogus = %d, want 400", code)
	}
	if code, _ := get(t, base+"/campaigns/a/timeseries?last=-1"); code != 400 {
		t.Errorf("?last=-1 = %d, want 400", code)
	}
}

func TestWritePrometheusLabeledEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.rounds").Add(7)
	reg.Histogram("lat", []int64{1}).Observe(1)
	snap := reg.Snapshot()

	cases := []struct{ id, want string }{
		{`plain`, `campaign="plain"`},
		{`has"quote`, `campaign="has\"quote"`},
		{`back\slash`, `campaign="back\\slash"`},
		{"new\nline", `campaign="new\nline"`},
		{"all\"of\\it\n", `campaign="all\"of\\it\n"`},
	}
	for _, tc := range cases {
		var b strings.Builder
		if err := snap.WritePrometheusLabeled(&b, "campaign", tc.id); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if !strings.Contains(out, "witag_core_rounds{"+tc.want+"} 7") {
			t.Errorf("label %q: escaped form %s missing:\n%s", tc.id, tc.want, out)
		}
		// The exposition format is line-oriented: a raw newline inside a
		// label value would split a sample in two.
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			if strings.HasPrefix(line, "witag_") && !strings.Contains(line, " ") {
				t.Errorf("label %q: sample line split by raw newline: %q", tc.id, line)
			}
		}
		// Histogram bucket lines compose the campaign label with le.
		if !strings.Contains(out, "witag_lat_bucket{"+tc.want+",le=") {
			t.Errorf("label %q: bucket lines miss the label:\n%s", tc.id, out)
		}
	}
}

// TestReadyzGoes503DuringCloseAllWithLiveStream holds Server.Shutdown, which
// took over the hub's CloseAll, to turning /readyz 503 while an SSE client
// is attached.
func TestReadyzGoes503DuringCloseAllWithLiveStream(t *testing.T) {
	srv, a, base := serveCampaign(t, "a", 0)

	// Attach a real SSE client and wait for the open comment, so Shutdown
	// runs with a live stream to tear down.
	resp, err := http.Get(base + "/campaigns/a/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("no SSE open frame: %q, %v", line, err)
	}
	a.PublishAnomaly("test_rule", "still flowing", 1)

	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()

	// While (and after) shutdown: readiness must read 503 even though the
	// stream teardown is still in flight; liveness stays 200.
	deadline := time.After(2 * time.Second)
	for {
		r2, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code := r2.StatusCode
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("/readyz never went 503 during Shutdown")
		default:
		}
	}
	<-done
	// The broker closed: the live stream must end, not hang.
	if _, err := io.ReadAll(br); err != nil {
		t.Fatalf("SSE stream errored instead of closing: %v", err)
	}
	if code, _ := get(t, base+"/healthz"); code != 200 {
		t.Errorf("/healthz during shutdown = %d, want 200", code)
	}
}
