package main

import (
	"strings"
	"testing"
)

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

// FuzzMetricsAddrFormat: no -addr value makes metricsAddrFormat panic,
// a rejection names the flag, and every value it accepts has the
// host:port form.
func FuzzMetricsAddrFormat(f *testing.F) {
	for _, v := range []string{"", ":0", "localhost:9090", "[::1]:80", "::1", "a:b:c", "[a]b:1", "host", "[x]:", "]:1"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, addr string) {
		err := metricsAddrFormat("-addr", addr)
		if err != nil && !strings.Contains(err.Error(), "-addr") {
			t.Fatalf("rejection of %q does not name the flag: %v", addr, err)
		}
		if err == nil && !hostPort(addr) {
			t.Fatalf("metricsAddrFormat accepted %q", addr)
		}
	})
}
