package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
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
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, c)
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

	keys := jsonKeys(t, body)
	if strings.Join(keys, " ") != "cmdline memstats witag" {
		t.Fatalf("/debug/vars keys = %q, want cmdline memstats witag in that order", keys)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") || !strings.Contains(body, "<a href='heap?debug=1'>heap</a>") {
		t.Fatalf("/debug/pprof/: code=%d body=%q", code, body)
	}
	if code, body = get(t, base+"/debug/pprof/heap?debug=1"); code != 200 || !strings.HasPrefix(body, "heap profile:") {
		t.Fatalf("/debug/pprof/heap?debug=1: code=%d body starts %q", code, body[:min(len(body), 40)])
	}
	if code, body = get(t, base+"/debug/pprof/cmdline"); code != 200 || body != strings.Join(os.Args, "\x00") {
		t.Fatalf("/debug/pprof/cmdline: code=%d body=%q", code, body)
	}
	resp := do(t, "GET", base+"/debug/pprof/heap?seconds=1", "")
	if resp.code != 400 || resp.header.Get("X-Go-Pprof") != "1" || !strings.Contains(resp.body, "delta profile") {
		t.Fatalf("a delta profile = %d %q, want 400 naming the omission", resp.code, resp.body)
	}
	if code, body = get(t, base+"/debug/pprof/nope"); code != 404 || body != "Unknown profile\n" {
		t.Fatalf("/debug/pprof/nope = %d %q, want 404 Unknown profile", code, body)
	}

	// symbol, by GET and by POST, names this very test function.
	pc := fmt.Sprintf("%#x", reflect.ValueOf(TestServeEndpoints).Pointer())
	sym := "num_symbols: 1\n" + pc + " witag/internal/obs.TestServeEndpoints\n"
	if code, body = get(t, base+"/debug/pprof/symbol?"+pc); code != 200 || body != sym {
		t.Fatalf("GET symbol = %d %q, want %q", code, body, sym)
	}
	if resp := do(t, "POST", base+"/debug/pprof/symbol", pc); resp.code != 200 || resp.body != sym {
		t.Fatalf("POST symbol = %d %q, want %q", resp.code, resp.body, sym)
	}

	// The CPU profile and the execution trace stream for their ?seconds.
	if resp := do(t, "GET", base+"/debug/pprof/profile?seconds=1", ""); resp.code != 200 || !strings.HasPrefix(resp.body, "\x1f\x8b") {
		t.Fatalf("profile?seconds=1 = %d, body starts %q, want the gzip magic", resp.code, resp.body[:min(len(resp.body), 8)])
	}
	if resp := do(t, "GET", base+"/debug/pprof/trace?seconds=1", ""); resp.code != 200 || !strings.HasPrefix(resp.body, "go 1.") {
		t.Fatalf("trace?seconds=1 = %d, body starts %q, want a trace header", resp.code, resp.body[:min(len(resp.body), 8)])
	}

	if code, body = get(t, base+"/nope"); code != 404 || body != "404 page not found\n" {
		t.Fatalf("unknown path: code=%d body=%q, want 404 page not found", code, body)
	}
}

// TestServeProtocol holds the responder to its HTTP contract: HEAD
// answers the head GET would, every other method but the symbol POST is
// refused 405 naming the allowed ones, a head over 8 KiB is refused 431,
// and every answer closes its connection.
func TestServeProtocol(t *testing.T) {
	_, _, base := serveCampaign(t, "c", 7)

	get := do(t, "GET", base+"/healthz", "")
	head := do(t, "HEAD", base+"/healthz", "")
	if head.code != 200 || head.body != "" || head.length != 3 || head.header.Get("Content-Type") != get.header.Get("Content-Type") {
		t.Fatalf("HEAD /healthz = %d, length %d, body %q, header %v; want GET's head and no body", head.code, head.length, head.body, head.header)
	}
	if !get.close || !head.close {
		t.Fatal("an answer did not say Connection: close")
	}
	// A HEAD of a stream answers its head at once.
	if head := do(t, "HEAD", base+"/events", ""); head.code != 200 || head.header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("HEAD /events = %d %v", head.code, head.header)
	}
	if head := do(t, "HEAD", base+"/debug/pprof/profile", ""); head.code != 200 || head.header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("HEAD /debug/pprof/profile = %d %v", head.code, head.header)
	}

	for _, c := range []struct{ method, path, allow string }{
		{"POST", "/status", "GET, HEAD"},
		{"PUT", "/metrics", "GET, HEAD"},
		{"DELETE", "/nope", "GET, HEAD"},
		{"PUT", "/debug/pprof/symbol", "GET, HEAD, POST"},
	} {
		resp := do(t, c.method, base+c.path, "x")
		if resp.code != 405 || resp.header.Get("Allow") != c.allow {
			t.Errorf("%s %s = %d, Allow %q; want 405, Allow %q", c.method, c.path, resp.code, resp.header.Get("Allow"), c.allow)
		}
	}

	req, err := http.NewRequest("GET", base+"/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Big", strings.Repeat("a", maxHead))
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 431 {
		t.Fatalf("a %d-byte header = %d, want 431", maxHead, r.StatusCode)
	}
}

// answer is one response read whole.
type answer struct {
	code   int
	header http.Header
	length int64
	close  bool
	body   string
}

// do sends one request, with body when it is not empty, and reads the
// answer whole.
func do(t *testing.T, method, url, body string) answer {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, resp.Header, resp.ContentLength, resp.Close, string(b)}
}

// jsonKeys returns the top-level keys of the JSON object doc, in order.
func jsonKeys(t *testing.T, doc string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
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

// TestHubHTTPEndpoints holds the server to its route contract: every
// path the root page lists answers as the table says (an /events stream
// opens, /timeseries points at -timeline while no timeline is attached),
// the /metrics forms serve the campaign's snapshot, and the
// multi-campaign routes are gone.
func TestHubHTTPEndpoints(t *testing.T) {
	srv, _, base := serveCampaign(t, "bench", 5)

	contract := map[string]int{
		"/status": 200, "/metrics": 200, "/events": 200, "/timeseries": 404,
		"/healthz": 200, "/readyz": 200, "/debug/vars": 200, "/debug/pprof/": 200,
	}
	code, root := get(t, base+"/")
	listed := strings.Fields(strings.TrimPrefix(root, "witag observability:"))
	if code != 200 || len(listed) != len(contract) {
		t.Fatalf("root page = %d %q, want the %d paths of the contract", code, root, len(contract))
	}
	for _, path := range listed {
		want, ok := contract[path]
		if !ok {
			t.Errorf("root page lists %s, which the contract does not cover", path)
			continue
		}
		// The status line alone: an /events stream stays open.
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	for _, path := range []string{"/campaigns", "/campaigns/bench", "/campaigns/bench/metrics", "/status/x", "/events/x"} {
		if code, _ := get(t, base+path); code != 404 {
			t.Errorf("%s = %d, want 404", path, code)
		}
	}

	if _, body := get(t, base+"/healthz"); body != "ok\n" {
		t.Errorf("/healthz body %q, want ok", body)
	}
	if _, body := get(t, base+"/readyz"); body != "ready\n" {
		t.Errorf("/readyz body %q, want ready", body)
	}
	if code, body := get(t, base+"/status"); code != 200 || !strings.Contains(body, `"id": "bench"`) || !strings.Contains(body, `"state": "running"`) {
		t.Errorf("/status = %d %q, want the running campaign", code, body)
	}
	if code, body := get(t, base+"/timeseries"); code != 404 || !strings.Contains(body, "-timeline") {
		t.Errorf("/timeseries without a timeline = %d %q, want 404 with the -timeline hint", code, body)
	}
	if _, body := get(t, base+"/metrics"); !strings.Contains(body, "witag_core_rounds 5\n") {
		t.Errorf("/metrics missing the unlabelled series:\n%s", body)
	}
	code, jsonBody := get(t, base+"/metrics?format=json")
	if code != 200 {
		t.Fatalf("/metrics?format=json = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(jsonBody), &snap); err != nil {
		t.Fatalf("metrics JSON unparseable: %v", err)
	}
	if snap.Counters["core.rounds"] != 5 {
		t.Errorf("JSON snapshot core.rounds = %d, want 5", snap.Counters["core.rounds"])
	}

	srv.Shutdown()
	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after Shutdown = %d, want 503", code)
	}
	if code, _ := get(t, base+"/healthz"); code != 200 {
		t.Errorf("/healthz after Shutdown = %d, want 200 (liveness is not readiness)", code)
	}
}

// TestHubTimeseriesEndpoint covers /timeseries: a 404 with a hint until a
// timeline is attached, then its windows, the newest ?last=N of them.
func TestHubTimeseriesEndpoint(t *testing.T) {
	_, a, base := serveCampaign(t, "a", 0)

	// No timeline attached: 404 with a hint, not an empty 200.
	if code, body := get(t, base+"/timeseries"); code != 404 || !strings.Contains(body, "-timeline") {
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

	code, body := get(t, base+"/timeseries")
	if code != 200 {
		t.Fatalf("timeseries = %d", code)
	}
	var ts TimeseriesResponse
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("timeseries not JSON: %v", err)
	}
	if ts.Campaign != "a" || ts.WindowTrials != 2 || ts.Total != 3 || len(ts.Windows) != 3 {
		t.Fatalf("timeseries = campaign %q window %d total %d windows %d",
			ts.Campaign, ts.WindowTrials, ts.Total, len(ts.Windows))
	}
	for _, w := range ts.Windows {
		if w.Kind != WindowLogical || w.Delta.Counters["core.rounds"] != 10 {
			t.Errorf("window did not survive the HTTP round-trip: %+v", w)
		}
	}

	_, body = get(t, base+"/timeseries?last=1")
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatal(err)
	}
	if len(ts.Windows) != 1 || ts.Windows[0].Seq != 2 {
		t.Errorf("?last=1 = %+v, want the newest window", ts.Windows)
	}

	if code, _ := get(t, base+"/timeseries?last=bogus"); code != 400 {
		t.Errorf("?last=bogus = %d, want 400", code)
	}
	if code, _ := get(t, base+"/timeseries?last=-1"); code != 400 {
		t.Errorf("?last=-1 = %d, want 400", code)
	}
}

// TestReadyzGoes503DuringCloseAllWithLiveStream holds Server.Shutdown, which
// took over the hub's CloseAll, to turning /readyz 503 while an SSE client
// is attached.
func TestReadyzGoes503DuringCloseAllWithLiveStream(t *testing.T) {
	srv, a, base := serveCampaign(t, "a", 0)

	// Attach a real SSE client and wait for the open comment, so Shutdown
	// runs with a live stream to tear down.
	resp, err := http.Get(base + "/events")
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
