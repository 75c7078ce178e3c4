package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

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
