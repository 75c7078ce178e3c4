package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHubRegisterDuplicateAndList(t *testing.T) {
	h := NewHub()
	if _, err := h.Register("", CampaignOptions{}); err == nil {
		t.Fatal("empty campaign ID accepted")
	}
	a, err := h.Register("alpha", CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("alpha", CampaignOptions{}); err == nil {
		t.Fatal("duplicate campaign ID accepted")
	}
	if _, err := h.Register("beta", CampaignOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := h.Get("alpha"); got != a {
		t.Fatal("Get returned a different campaign")
	}
	if got := h.Get("missing"); got != nil {
		t.Fatal("Get invented a campaign")
	}
	list := h.List()
	if len(list) != 2 || list[0].ID != "alpha" || list[1].ID != "beta" {
		t.Fatalf("List = %+v, want alpha then beta in registration order", list)
	}
}

func TestHubRollupMergesAndPrefixes(t *testing.T) {
	h := NewHub()
	a, _ := h.Register("a", CampaignOptions{})
	b, _ := h.Register("b", CampaignOptions{})
	a.Registry.Counter("core.rounds").Add(3)
	b.Registry.Counter("core.rounds").Add(4)
	b.Registry.Counter("link.segments_sent").Add(7)

	roll := h.Rollup()
	if got := roll.Counters["core.rounds"]; got != 7 {
		t.Errorf("rollup core.rounds = %d, want 7 (exact sum across campaigns)", got)
	}
	if got := roll.Counters["link.segments_sent"]; got != 7 {
		t.Errorf("rollup link.segments_sent = %d, want 7", got)
	}

	pre := h.PrefixedRollup()
	if got := pre.Counters["campaign.a.core.rounds"]; got != 3 {
		t.Errorf("prefixed campaign.a.core.rounds = %d, want 3", got)
	}
	if got := pre.Counters["campaign.b.core.rounds"]; got != 4 {
		t.Errorf("prefixed campaign.b.core.rounds = %d, want 4", got)
	}
	if _, ok := pre.Counters["core.rounds"]; ok {
		t.Error("prefixed rollup leaked an unprefixed instrument")
	}
	// The campaign's volatile event counters must stay volatile through
	// the prefix rename, so a prefixed rollup's deterministic view is
	// still comparable across runs.
	if !pre.Volatile["campaign.a.events.published"] {
		t.Error("prefix rename lost the volatile marking")
	}
}

func TestCampaignProgressEventsAndStatus(t *testing.T) {
	c := NewCampaign("job", CampaignOptions{})
	c.MinEventInterval = time.Nanosecond // publish every Done
	ch, cancel := c.Events.Subscribe(64)
	defer cancel()

	c.ProgressStart(3)
	for i := 0; i < 3; i++ {
		c.ProgressDone(1)
	}
	st := c.Status()
	if st.State != "running" || st.Done != 3 || st.Total != 3 || st.Watchers != 1 {
		t.Fatalf("status = %+v, want running 3/3 with one watcher", st)
	}

	c.Finish(nil)
	c.Finish(errors.New("late")) // idempotent: first outcome wins
	if st := c.Status(); st.State != "done" || st.Outcome != "" {
		t.Fatalf("status after Finish = %+v, want state done", st)
	}

	var kinds []string
	var lastProgress ProgressSnapshot
	for ev := range ch { // broker closed by Finish → loop terminates
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "progress" {
			if err := json.Unmarshal(ev.Data, &lastProgress); err != nil {
				t.Fatalf("unparseable progress event %q: %v", ev.Data, err)
			}
		}
	}
	progressEvents := 0
	for _, k := range kinds {
		if k == "progress" {
			progressEvents++
		}
	}
	if progressEvents == 0 {
		t.Fatal("no progress events published")
	}
	if kinds[len(kinds)-1] != "status" {
		t.Fatalf("event kinds %v, want a final status event", kinds)
	}
	if lastProgress.Campaign != "job" || lastProgress.Done != 3 || lastProgress.Total != 3 {
		t.Fatalf("final progress snapshot = %+v, want job 3/3", lastProgress)
	}
}

func TestCampaignFinishRecordsFailure(t *testing.T) {
	c := NewCampaign("job", CampaignOptions{})
	c.Finish(errors.New("boom"))
	st := c.Status()
	if st.State != "failed" || st.Outcome != "boom" {
		t.Fatalf("status = %+v, want failed/boom", st)
	}
}

func TestCampaignLoggerTagsCampaignID(t *testing.T) {
	var buf bytes.Buffer
	c := NewCampaign("tagged", CampaignOptions{LogW: &buf, LogLevel: slog.LevelInfo})
	c.Logger.Info("hello", slog.Int("n", 1))
	line := buf.String()
	if !strings.Contains(line, `"campaign":"tagged"`) {
		t.Fatalf("log line %q missing the campaign binding", line)
	}
	if !strings.Contains(line, `"msg":"hello"`) || !strings.Contains(line, `"n":1`) {
		t.Fatalf("log line %q missing record fields", line)
	}

	// Without a writer the logger must exist and swallow everything.
	q := NewCampaign("quiet", CampaignOptions{})
	q.Logger.Error("dropped")
	q.PublishAnomaly("rule", "detail", 7) // logs at Warn; must not panic
}

func TestHubHTTPEndpoints(t *testing.T) {
	h := NewHub()
	a, _ := h.Register("a", CampaignOptions{})
	a.Registry.Counter("core.rounds").Add(5)
	srv := httptest.NewServer(NewHubMux(h))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
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

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %d %q", code, body)
	}

	code, body := get("/campaigns")
	if code != 200 {
		t.Fatalf("/campaigns = %d", code)
	}
	var list []CampaignStatus
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("/campaigns not JSON: %v", err)
	}
	if len(list) != 1 || list[0].ID != "a" || list[0].State != "running" {
		t.Fatalf("/campaigns = %+v", list)
	}

	if code, body := get("/campaigns/a"); code != 200 || !strings.Contains(body, `"id": "a"`) {
		t.Errorf("/campaigns/a = %d %q", code, body)
	}
	if code, _ := get("/campaigns/nope"); code != 404 {
		t.Errorf("/campaigns/nope = %d, want 404", code)
	}
	if code, _ := get("/campaigns/a/bogus"); code != 404 {
		t.Errorf("/campaigns/a/bogus = %d, want 404", code)
	}

	// Per-campaign Prometheus text carries the campaign label on every
	// series, composed with histogram le labels.
	_, prom := get("/campaigns/a/metrics")
	if !strings.Contains(prom, `witag_core_rounds{campaign="a"} 5`) {
		t.Errorf("labeled metrics missing counter:\n%s", prom)
	}
	code, jsonBody := get("/campaigns/a/metrics?format=json")
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

	// Process rollup, flat and per-campaign prefixed.
	if _, body := get("/metrics"); !strings.Contains(body, "witag_core_rounds 5") {
		t.Errorf("/metrics rollup missing series:\n%s", body)
	}
	if _, body := get("/metrics?per_campaign=1"); !strings.Contains(body, "witag_campaign_a_core_rounds 5") {
		t.Errorf("/metrics?per_campaign=1 missing prefixed series:\n%s", body)
	}

	h.CloseAll()
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after CloseAll = %d, want 503", code)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz after CloseAll = %d, want 200 (liveness is not readiness)", code)
	}
}

func TestSnapshotWithPrefix(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(1)
	reg.Counter("v", Volatile).Add(2)
	reg.Histogram("h", []int64{1, 10}).Observe(5)
	s := reg.Snapshot().WithPrefix("p.")
	if s.Counters["p.c"] != 1 || s.Counters["p.v"] != 2 {
		t.Fatalf("prefixed snapshot = %+v", s)
	}
	if _, ok := s.Histograms["p.h"]; !ok {
		t.Fatal("histogram lost in prefix rename")
	}
	if !s.Volatile["p.v"] {
		t.Fatal("volatile marking lost in prefix rename")
	}
}
