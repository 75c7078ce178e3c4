package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunLedgerAppendAndRead(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts") // AppendRunRecord creates it
	if err := AppendRunRecord(dir, RunRecord{
		Tool: "witag-bench", Campaign: "bench", WallMs: 1200,
		Artifacts:  []string{"BENCH_figure5.json"},
		Provenance: map[string]any{"seed": 42},
	}); err != nil {
		t.Fatal(err)
	}
	if err := AppendRunRecord(dir, RunRecord{
		Tool: "witag-sim", Campaign: "sim", Outcome: "error", Error: "boom",
	}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, RunLedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, skipped, err := ReadRunLedgerTolerant(f)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("ledger has %d damaged trailing line(s)", skipped)
	}
	if len(recs) != 2 {
		t.Fatalf("ledger has %d records, want 2 (append-only)", len(recs))
	}
	if recs[0].Kind != "run" || recs[0].Outcome != "ok" {
		t.Errorf("record 0 = %+v, want kind=run with defaulted outcome=ok", recs[0])
	}
	if recs[0].Tool != "witag-bench" || recs[0].WallMs != 1200 || len(recs[0].Artifacts) != 1 {
		t.Errorf("record 0 lost fields: %+v", recs[0])
	}
	if recs[1].Outcome != "error" || recs[1].Error != "boom" {
		t.Errorf("record 1 = %+v, want error/boom", recs[1])
	}
}

func TestReadRunLedgerTolerantSkipsTruncatedTail(t *testing.T) {
	good := `{"kind":"run","tool":"witag-bench","campaign":"a","outcome":"ok","wall_ms":5}` + "\n"

	// A crash mid-append leaves a partial trailing line: skip and count.
	recs, skipped, err := ReadRunLedgerTolerant(strings.NewReader(good + good + `{"kind":"run","to`))
	if err != nil {
		t.Fatalf("truncated tail must not error: %v", err)
	}
	if len(recs) != 2 || skipped != 1 {
		t.Fatalf("got %d records, %d skipped; want 2 records, 1 skipped", len(recs), skipped)
	}
	if recs[0].Tool != "witag-bench" || recs[0].WallMs != 5 {
		t.Errorf("surviving record lost fields: %+v", recs[0])
	}

	// A clean ledger reads with nothing skipped.
	recs, skipped, err = ReadRunLedgerTolerant(strings.NewReader(good + good))
	if err != nil || len(recs) != 2 || skipped != 0 {
		t.Fatalf("clean ledger: recs=%d skipped=%d err=%v", len(recs), skipped, err)
	}

	// Garbage before the tail is corruption.
	if _, _, err := ReadRunLedgerTolerant(strings.NewReader("not json\n" + good)); err == nil {
		t.Fatal("mid-file damage must still error")
	}
	if _, _, err := ReadRunLedgerTolerant(strings.NewReader(good + "not json\n" + good)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("mid-file damage error = %v, want line-2 error", err)
	}
}
