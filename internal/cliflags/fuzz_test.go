package cliflags

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"witag/internal/fault"
	"witag/internal/traffic"
)

// The validators are the CLIs' first contact with user input. Fuzzing
// holds them to two rules: no value makes one panic, and every value one
// accepts is allowed by its flag's documented grammar, checked here
// independently of the validator. A rejection must name the flag.

// FuzzSelectorFlags drives the selector validators — -log-level, a Choice
// list, -fault and -traffic — with arbitrary values.
func FuzzSelectorFlags(f *testing.F) {
	for _, v := range []string{"", "info", "warn", "all", "arq", "bursty", "office", "INFO", " info", "a\x00", "all,rs"} {
		f.Add(v, false)
		f.Add(v, true)
	}
	f.Fuzz(func(t *testing.T, val string, allow bool) {
		const flag = "-flag"
		named := func(err error) {
			if err != nil && !strings.Contains(err.Error(), flag) {
				t.Fatalf("rejection of %q does not name the flag: %v", val, err)
			}
		}
		orEmpty := func(names []string, empty bool) []string {
			if empty {
				names = append(slices.Clip(names), "")
			}
			return names
		}

		_, err := LogLevel(flag, val)
		named(err)
		if err == nil && !slices.Contains(orEmpty(LogLevels, true), val) {
			t.Fatalf("LogLevel accepted %q", val)
		}

		valid := []string{"all", "arq", "fountain", "rs"}
		err = Choice(flag, val, valid, allow)
		named(err)
		if (err == nil) != slices.Contains(orEmpty(valid, allow), val) {
			t.Fatalf("Choice(%q, allowEmpty=%v) returned %v", val, allow, err)
		}

		err = FaultProfile(flag, val, allow)
		named(err)
		if (err == nil) != slices.Contains(orEmpty(fault.Names(), allow), val) {
			t.Fatalf("FaultProfile(%q, allowEmpty=%v) returned %v", val, allow, err)
		}

		for _, all := range []bool{false, true} {
			ok := slices.Contains(orEmpty(traffic.Names(), allow), val) || (all && val == "all")
			err = TrafficProfile(flag, val, allow, all)
			named(err)
			if (err == nil) != ok {
				t.Fatalf("TrafficProfile(%q, allowEmpty=%v, allowAll=%v) returned %v", val, allow, all, err)
			}
		}
	})
}

// hostPort reports whether addr has the host:port form: a host with no
// colon, or a bracketed one, then a colon and a port with no colon.
func hostPort(addr string) bool {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 || strings.IndexByte(addr[i+1:], ':') >= 0 {
		return false
	}
	host := addr[:i]
	if strings.HasPrefix(host, "[") {
		return strings.HasSuffix(host, "]") && !strings.ContainsAny(host[1:len(host)-1], "[]")
	}
	return !strings.ContainsAny(host, ":[]")
}

// FuzzMetricsAddrFormat: -metrics-addr style values that parse must have
// the host:port form. (MetricsAddr binds the address, so only its parser
// is fuzzed.)
func FuzzMetricsAddrFormat(f *testing.F) {
	for _, v := range []string{"", ":0", "localhost:9090", "[::1]:80", "::1", "a:b:c", "[a]b:1", "host", "[x]:", "]:1"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, addr string) {
		err := MetricsAddrFormat("-metrics-addr", addr)
		if err != nil && !strings.Contains(err.Error(), "-metrics-addr") {
			t.Fatalf("rejection of %q does not name the flag: %v", addr, err)
		}
		if err == nil && !hostPort(addr) {
			t.Fatalf("MetricsAddrFormat accepted %q", addr)
		}
	})
}

// FuzzPathFlags drives the path validators with arbitrary names inside a
// scratch directory that holds one file and one subdirectory. Whatever a
// validator accepts must be what it documents: an existing directory, an
// existing non-directory, a file whose parent directory exists, or a
// directory that can be made, without making it.
func FuzzPathFlags(f *testing.F) {
	for _, v := range []string{"", ".", "dir", "file", "dir/x", "file/x", "new/deep/dir", "a\x00b", "dir/../file"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if name != "" && !filepath.IsLocal(name) {
			t.Skip("the validators take any path; the fuzzer stays inside its scratch directory")
		}
		root := t.TempDir()
		if err := os.Mkdir(filepath.Join(root, "dir"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "file"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		path := ""
		if name != "" {
			path = filepath.Join(root, name)
		}
		isDir := func(p string) bool {
			fi, err := os.Stat(p)
			return err == nil && fi.IsDir()
		}
		exists := func(p string) bool {
			_, err := os.Stat(p)
			return err == nil
		}

		if InputDir("-in", path) == nil && (path == "" || !isDir(path)) {
			t.Fatalf("InputDir accepted %q", name)
		}
		if InputFile("-in", path) == nil && path != "" && (!exists(path) || isDir(path)) {
			t.Fatalf("InputFile accepted %q", name)
		}
		if OutputFile("-out", path) == nil && path != "" && !isDir(filepath.Dir(path)) {
			t.Fatalf("OutputFile accepted %q", name)
		}
		if existed := exists(path); OutputDir("-out", path) == nil && path != "" {
			if !existed && exists(path) {
				t.Fatalf("OutputDir made %q; it only checks", name)
			}
			if err := os.MkdirAll(path, 0o755); err != nil {
				t.Fatalf("OutputDir accepted %q, but it cannot be made: %v", name, err)
			}
		}
	})
}
