package cliflags

import (
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"witag/internal/fault"
	"witag/internal/traffic"
)

func TestChoice(t *testing.T) {
	valid := []string{"a", "b"}
	if err := Choice("-x", "a", valid, false); err != nil {
		t.Fatal(err)
	}
	if err := Choice("-x", "", valid, true); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"c", ""} {
		err := Choice("-x", bad, valid, false)
		if err == nil {
			t.Fatalf("Choice accepted %q", bad)
		}
		// The error must name the flag and list the choices — it is the
		// user's whole diagnostic.
		if !strings.Contains(err.Error(), "-x") || !strings.Contains(err.Error(), "a, b") {
			t.Fatalf("unhelpful error: %v", err)
		}
	}
}

func TestLogLevel(t *testing.T) {
	for val, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, err := LogLevel("-log-level", val)
		if err != nil || got != want {
			t.Errorf("LogLevel(%q) = %v, %v; want %v", val, got, err, want)
		}
	}
	if _, err := LogLevel("-log-level", "loud"); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("bad level returned %v", err)
	}
}

func TestProfileSelectors(t *testing.T) {
	if err := FaultProfile("-fault", fault.Names()[0], false); err != nil {
		t.Fatal(err)
	}
	if err := FaultProfile("-fault", "", true); err != nil {
		t.Fatal(err)
	}
	if err := FaultProfile("-fault", "nope", true); err == nil || !strings.Contains(err.Error(), "-fault") {
		t.Fatalf("bad fault profile returned %v", err)
	}

	if err := TrafficProfile("-traffic", traffic.Names()[0], false, false); err != nil {
		t.Fatal(err)
	}
	if err := TrafficProfile("-traffic", "all", false, true); err != nil {
		t.Fatal(err)
	}
	if err := TrafficProfile("-traffic", "all", false, false); err == nil {
		t.Fatal("\"all\" accepted where the sweep-grid form is not allowed")
	}
	if err := TrafficProfile("-traffic", "nope", true, true); err == nil {
		t.Fatal("bad traffic profile accepted")
	}
}

func TestDirAndFileChecks(t *testing.T) {
	tmp := t.TempDir()

	// OutputDir accepts a directory that can be made, and makes nothing:
	// not it, not its parents, not its probe.
	deep := filepath.Join(tmp, "new", "deep")
	if err := OutputDir("-json", deep); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Fatalf("OutputDir left %d entries under %s (%v)", len(entries), tmp, err)
	}
	if err := OutputDir("-json", tmp); err != nil {
		t.Fatal(err)
	}
	// A path under a file can never be made.
	blocker := filepath.Join(tmp, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{blocker, filepath.Join(blocker, "sub")} {
		if err := OutputDir("-json", dir); err == nil || !strings.HasPrefix(err.Error(), "-json: ") {
			t.Fatalf("OutputDir(%s) = %v, want an error naming -json", dir, err)
		}
	}
	if err := OutputDir("-json", ""); err != nil {
		t.Fatal("empty OutputDir must be the off switch")
	}

	if err := InputDir("-candidate", tmp); err != nil {
		t.Fatal(err)
	}
	if err := InputDir("-candidate", ""); err == nil {
		t.Fatal("InputDir accepted the empty string")
	}
	if err := InputDir("-candidate", filepath.Join(tmp, "missing")); err == nil {
		t.Fatal("InputDir accepted a missing directory")
	}
	file := filepath.Join(tmp, "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := InputDir("-candidate", file); err == nil {
		t.Fatal("InputDir accepted a plain file")
	}

	if err := OutputFile("-log", filepath.Join(tmp, "run.jsonl")); err != nil {
		t.Fatal(err)
	}
	if err := OutputFile("-log", ""); err != nil {
		t.Fatal("empty OutputFile must be the off switch")
	}
	if err := OutputFile("-log", filepath.Join(tmp, "missing", "run.jsonl")); err == nil {
		t.Fatal("OutputFile accepted a missing parent directory")
	}
}

func TestMetricsAddr(t *testing.T) {
	if ln, err := MetricsAddr("-metrics-addr", ""); ln != nil || err != nil {
		t.Fatalf("empty MetricsAddr must be the off switch, got %v, %v", ln, err)
	}
	if _, err := MetricsAddr("-metrics-addr", "no-port-here"); err == nil || !strings.Contains(err.Error(), "host:port") {
		t.Fatalf("malformed addr returned %v", err)
	}

	// The listener it returns holds the port: a second bind of the same
	// address, as by another process, must be refused naming the flag.
	ln, err := MetricsAddr("-metrics-addr", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if busy, err := MetricsAddr("-metrics-addr", ln.Addr().String()); err == nil || !strings.HasPrefix(err.Error(), "-metrics-addr") {
		if busy != nil {
			busy.Close()
		}
		t.Fatalf("MetricsAddr on a busy port returned %v, want an error naming -metrics-addr", err)
	}
}
