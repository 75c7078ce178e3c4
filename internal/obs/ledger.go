package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// The run ledger is an append-only RUNS.jsonl in an artifact directory:
// one line per CLI invocation, recording what ran, how it ended, how long
// it took and which artifacts it left behind. Appends are O_APPEND
// single-write, so concurrent invocations sharing a directory interleave
// whole lines, never torn ones (POSIX guarantees atomicity for writes
// well under PIPE_BUF; a ledger record is a few hundred bytes).

// RunLedgerFile is the ledger's file name inside an artifact directory.
const RunLedgerFile = "RUNS.jsonl"

// RunRecord is one ledger line.
type RunRecord struct {
	Kind string `json:"kind"` // always "run"
	// Tool is the invoking command ("witag-bench", "witag-sim").
	Tool string `json:"tool"`
	// Campaign is the ID of the campaign the invocation ran.
	Campaign string `json:"campaign"`
	// Outcome is "ok", "error" or "cancelled".
	Outcome string `json:"outcome"`
	// Error carries the failure text when Outcome != "ok".
	Error string `json:"error,omitempty"`
	// WallMs is the invocation's wall time (volatile, human accounting).
	WallMs int64 `json:"wall_ms"`
	// Artifacts lists the files the invocation wrote (ledger-relative
	// names for files in the same directory, paths otherwise).
	Artifacts []string `json:"artifacts,omitempty"`
	// Provenance is the run's provenance envelope (the same stamp the
	// BENCH artifacts carry), opaque to this package.
	Provenance any `json:"provenance,omitempty"`
	// Build is the invoking binary's build stamp (buildinfo.Info: git
	// SHA + Go version), opaque to this package like Provenance.
	Build any `json:"build,omitempty"`
}

// AppendRunRecord appends one record to dir's RUNS.jsonl, creating the
// directory and file as needed.
func AppendRunRecord(dir string, rec RunRecord) error {
	rec.Kind = "run"
	if rec.Outcome == "" {
		rec.Outcome = "ok"
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, RunLedgerFile), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(buf, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
