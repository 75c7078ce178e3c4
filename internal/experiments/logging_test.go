package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"witag/internal/obs"
	"witag/internal/obs/obstest"
)

// Campaign logging rides the same determinism contract as the rest of the
// obs layer (DESIGN.md §8, §15): a campaign scope with a live logger and
// event broker is a pure sink, so installing one changes no result byte,
// and the canonicalized log (wall-clock fields stripped) is invariant
// across worker counts. `make determinism` runs this test.

// loggedRobustness runs the shared small sweep under a full campaign
// scope — logger, SSE subscriber, trace ring — and returns the result
// plus the canonicalized log bytes.
func loggedRobustness(t *testing.T, workers int) (*RobustnessResult, string) {
	t.Helper()
	var logBuf bytes.Buffer
	camp := obs.NewCampaign("test", obs.CampaignOptions{
		TraceCap: 1 << 12,
		LogW:     &logBuf,
		LogLevel: slog.LevelDebug,
	})
	// A live watcher with a tiny queue: even a slow SSE client dropping
	// events must not touch the science path.
	_, cancel := camp.Events.Subscribe(1)
	defer cancel()

	cfg := obsRobustnessConfig(workers)
	cfg.Campaign = camp
	res, err := RobustnessCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The harness-level log lines a CLI would write: sequential call
	// sites only, with deterministic fields drawn from the result.
	camp.Logger.Info("sweep finished",
		slog.Int("points", len(res.Points)), slog.Int("workers_masked", 0))
	camp.Finish(nil)

	var canon bytes.Buffer
	if err := obstest.CanonicalizeLog(bytes.NewReader(logBuf.Bytes()), &canon); err != nil {
		t.Fatal(err)
	}
	return res, canon.String()
}

func TestLoggingDoesNotPerturbResults(t *testing.T) {
	// Bare run: no campaign, so no observer and no logger.
	bare, err := RobustnessCtx(context.Background(), obsRobustnessConfig(manyWorkers()))
	if err != nil {
		t.Fatal(err)
	}

	logged, canonParallel := loggedRobustness(t, manyWorkers())
	if !reflect.DeepEqual(bare, logged) {
		bb, _ := json.Marshal(bare)
		bl, _ := json.Marshal(logged)
		t.Fatalf("attaching a logging campaign changed the result:\nbare:   %s\nlogged: %s", bb, bl)
	}

	// Worker-count invariance of the canonicalized log: the wall-clock
	// fields are stripped, everything left is deterministic.
	_, canonSerial := loggedRobustness(t, 1)
	if canonSerial != canonParallel {
		t.Fatalf("worker count changed the canonicalized log:\n1 worker:\n%s\nparallel:\n%s", canonSerial, canonParallel)
	}
	if strings.Contains(canonParallel, `"ts"`) {
		t.Fatalf("canonicalized log still carries timestamps:\n%s", canonParallel)
	}
	// Guard against the vacuous pass: the log must actually have lines.
	if !strings.Contains(canonParallel, `"msg":"sweep finished"`) {
		t.Fatalf("campaign log missing expected line:\n%s", canonParallel)
	}
}
