package obs

import (
	"encoding/json"
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

	raw, err := os.ReadFile(filepath.Join(dir, RunLedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	var recs []RunRecord
	for i, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasSuffix(line, "\n") {
			t.Fatalf("ledger line %d has no newline: %q", i+1, line)
		}
		var rec RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("ledger line %d: %v", i+1, err)
		}
		recs = append(recs, rec)
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
