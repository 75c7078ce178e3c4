package clirun

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"witag/internal/obs"
)

func start(t *testing.T, ctx context.Context, opts Options) *Run {
	t.Helper()
	r, err := Start(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func readLedger(t *testing.T, dir string) []obs.RunRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, obs.RunLedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.RunRecord
	for i, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasSuffix(line, "\n") {
			t.Fatalf("ledger line %d has no newline: %q", i+1, line)
		}
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("ledger line %d: %v", i+1, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestLedgerOutcomes(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		ctx context.Context
		err error
	}{
		{context.Background(), nil},
		{context.Background(), boom},
		{cancelled, context.Canceled},
	} {
		r := start(t, c.ctx, Options{Tool: "witag-test", Campaign: "test", LedgerDir: dir})
		r.AddArtifact("BENCH_x.json")
		r.Finish(c.err)
	}
	recs := readLedger(t, dir)
	if len(recs) != 3 {
		t.Fatalf("%d ledger lines, want 3", len(recs))
	}
	for i, want := range []struct{ outcome, err string }{
		{"ok", ""}, {"error", "boom"}, {"cancelled", "context canceled"},
	} {
		got := recs[i]
		if got.Outcome != want.outcome || got.Error != want.err {
			t.Errorf("line %d: outcome %q error %q, want %q %q", i, got.Outcome, got.Error, want.outcome, want.err)
		}
		if got.Tool != "witag-test" || got.Campaign != "test" || len(got.Artifacts) != 1 {
			t.Errorf("line %d: %+v", i, got)
		}
	}
}

// record fills the campaign's ring with n events.
func record(r *Run, n int) {
	for i := 0; i < n; i++ {
		r.Campaign.Trace.Record(obs.Event{Kind: "round", Trial: i, Round: i + 1})
	}
}

func TestTraceExportEndsInSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	r := start(t, context.Background(), Options{Tool: "witag-test", Campaign: "test", TraceCap: 4})
	defer r.Finish(nil)
	record(r, 6)
	if err := r.ExportTrace(path, ""); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Truncated || len(tr.Events) != 4 || tr.Total != 6 || tr.Dropped != 2 {
		t.Fatalf("export read back as %d events, total %d, dropped %d, truncated %v; want 4, 6, 2, false",
			len(tr.Events), tr.Total, tr.Dropped, tr.Truncated)
	}
}

// TestExportTraceResetsRing checks that each per-experiment export after
// the first reads exactly like one from a fresh ring of the same
// capacity: events, totals and dropped count all start over.
func TestExportTraceResetsRing(t *testing.T) {
	dir := t.TempDir()
	r := start(t, context.Background(), Options{Tool: "witag-test", Campaign: "test", TraceCap: 4})
	defer r.Finish(nil)
	record(r, 7)
	if err := r.ExportTrace(filepath.Join(dir, "TRACE_a.jsonl"), ""); err != nil {
		t.Fatal(err)
	}
	record(r, 3)
	second := filepath.Join(dir, "TRACE_b.jsonl")
	if err := r.ExportTrace(second, ""); err != nil {
		t.Fatal(err)
	}

	fresh := obs.NewRecorder(4)
	for i := 0; i < 3; i++ {
		fresh.Record(obs.Event{Kind: "round", Trial: i, Round: i + 1})
	}
	var want bytes.Buffer
	if err := fresh.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("export after reset differs from a fresh ring's:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

func TestListenerReleasedOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := start(t, ctx, Options{Tool: "witag-test", Campaign: "test", MetricsAddr: "127.0.0.1:0"})
	defer r.Finish(context.Canceled)
	addr := r.server.Addr.String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("listener not serving: %v", err)
	}
	conn.Close()

	cancel()
	// The AfterFunc closes the server on its own goroutine; the port must
	// come free without waiting for Finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			ln.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("listener on %s still bound after cancel: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStartFailureFinishesRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir := t.TempDir()
	_, err = Start(context.Background(), Options{
		Tool: "witag-test", Campaign: "test", MetricsAddr: ln.Addr().String(),
		LedgerDir: dir,
	})
	if err == nil {
		t.Fatal("Start bound an address already in use")
	}
	if recs := readLedger(t, dir); len(recs) != 1 || recs[0].Outcome != "error" {
		t.Fatalf("failed start left ledger %+v, want one error line", recs)
	}
}
