// Package cliflags holds the up-front flag validation shared by the four
// CLIs (witag-bench, witag-sim, witag-trace, witag-gate). The contract,
// stated once here instead of four times over main packages: every
// selector and path flag is checked before any work starts, and a bad
// value produces one clear error naming the flag and the valid choices —
// a typo must never silently run nothing, and an unwritable output path
// must fail now, not after minutes of sweeping.
package cliflags

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"

	"witag/internal/fault"
	"witag/internal/traffic"
)

// LogLevels lists the accepted -log-level values, mildest first.
var LogLevels = []string{"debug", "info", "warn", "error"}

// LogLevel parses a -log-level selector into its slog level.
func LogLevel(flagName, val string) (slog.Level, error) {
	switch val {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("%s: unknown value %q (valid: %s)", flagName, val, strings.Join(LogLevels, ", "))
}

// Choice rejects val unless it appears in valid, naming the flag and the
// full list in the error. An empty val passes when allowEmpty is set
// (the "feature off" convention the CLIs share).
func Choice(flagName, val string, valid []string, allowEmpty bool) error {
	if val == "" && allowEmpty {
		return nil
	}
	for _, v := range valid {
		if v == val {
			return nil
		}
	}
	return fmt.Errorf("%s: unknown value %q (valid: %s)", flagName, val, strings.Join(valid, ", "))
}

// FaultProfile validates a -fault selector against the named profiles.
func FaultProfile(flagName, val string, allowEmpty bool) error {
	if val == "" && allowEmpty {
		return nil
	}
	if _, err := fault.Named(val); err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return nil
}

// TrafficProfile validates a -traffic selector against the named ambient
// profiles. "all" passes when allowAll is set (the sweep-grid form).
func TrafficProfile(flagName, val string, allowEmpty, allowAll bool) error {
	if (val == "" && allowEmpty) || (val == "all" && allowAll) {
		return nil
	}
	if _, err := traffic.Named(val); err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return nil
}

// OutputDir checks that dir is a writable directory or can be made one:
// its nearest existing ancestor must be a directory that takes a new
// entry. It creates nothing, so a run refused over a later flag leaves no
// directory behind; the caller makes dir once every flag has passed.
func OutputDir(flagName, dir string) error {
	if dir == "" {
		return nil
	}
	at := dir
	for {
		fi, err := os.Stat(at)
		if err == nil {
			if !fi.IsDir() {
				return fmt.Errorf("%s: %s is not a directory", flagName, at)
			}
			break
		}
		if parent := filepath.Dir(at); errors.Is(err, fs.ErrNotExist) && parent != at {
			at = parent
			continue
		}
		return fmt.Errorf("%s: %w", flagName, err)
	}
	// The probe is the check: it fails as making dir would, also for
	// root on a read-only file system.
	probe, err := os.MkdirTemp(at, ".probe-")
	if err != nil {
		var pe *fs.PathError
		if errors.As(err, &pe) {
			err = pe.Err
		}
		return fmt.Errorf("%s: cannot create %s under %s: %w", flagName, dir, at, err)
	}
	if err := os.Remove(probe); err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return nil
}

// InputDir requires dir to exist and be a directory.
func InputDir(flagName, dir string) error {
	if dir == "" {
		return fmt.Errorf("%s: directory is required", flagName)
	}
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("%s: %s is not a directory", flagName, dir)
	}
	return nil
}

// InputFile requires path (when given) to exist and be a regular file —
// the read-side twin of OutputFile. Empty means the flag is unset and
// passes.
func InputFile(flagName, path string) error {
	if path == "" {
		return nil
	}
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	if fi.IsDir() {
		return fmt.Errorf("%s: %s is a directory, not a file", flagName, path)
	}
	return nil
}

// OutputFile requires path's parent directory to exist, so the file
// create at the end of a run cannot be the first time we learn the
// destination is bogus. It does not create the file (some callers create
// it immediately themselves; others only on exit).
func OutputFile(flagName, path string) error {
	if path == "" {
		return nil
	}
	dir := filepath.Dir(path)
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("%s: %s is not a directory", flagName, dir)
	}
	return nil
}

// MetricsAddrFormat validates that addr parses as host:port without
// binding it — the client-side twin of MetricsAddr, for tools (like
// witag-top) that connect to an address another process is serving on.
func MetricsAddrFormat(flagName, addr string) error {
	if addr == "" {
		return fmt.Errorf("%s: address is required", flagName)
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("%s: %q is not host:port: %w", flagName, addr, err)
	}
	return nil
}

// MetricsAddr binds a -metrics-addr value up front and returns the
// listener, which the caller serves on (obs.Serve) or closes: addr must
// parse as host:port and be free. Binding once, before any work, means a
// busy port is refused naming the flag, and no other process can take
// the port between the check and the serve. An empty addr is the off
// switch: no listener and no error.
func MetricsAddr(flagName, addr string) (net.Listener, error) {
	if addr == "" {
		return nil, nil
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return nil, fmt.Errorf("%s: %q is not host:port: %w", flagName, addr, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: cannot bind %q: %w", flagName, addr, err)
	}
	return ln, nil
}
