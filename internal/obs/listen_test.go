package obs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// ipv6Loopback reports whether this host can listen on [::1].
func ipv6Loopback() bool {
	ln, err := net.Listen("tcp", "[::1]:0")
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// pingPong dials addr, accepts the connection on ln and passes one
// message each way.
func pingPong(t *testing.T, ln *Listener, addr string) {
	t.Helper()
	accepted := make(chan *os.File, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- conn
	}()
	client, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	if server == nil {
		t.FailNow()
	}
	defer server.Close()
	deadline := time.Now().Add(5 * time.Second)
	client.SetDeadline(deadline)
	server.SetDeadline(deadline)
	buf := make([]byte, 4)
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("server read %q, %v", buf, err)
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, buf); err != nil || string(buf) != "pong" {
		t.Fatalf("client read %q, %v", buf, err)
	}
}

// TestListen holds Listen to net.Listen("tcp", addr) on the forms it
// takes: each binds where net binds it, prints the address net prints,
// and serves a connection; a busy port fails with net's error text, the
// forms it does not take are refused naming the accepted ones, Close
// wakes a pending Accept, and the live surface closes a client that
// sends nothing once the header deadline passes.
func TestListen(t *testing.T) {
	ipv6 := ipv6Loopback()
	wildcard := "0.0.0.0"
	if ipv6 {
		wildcard = "::"
	}
	for _, c := range []struct {
		addr, host, dial string // dial: the address a client reaches it at
		needIPv6         bool
	}{
		{"127.0.0.1:0", "127.0.0.1", "127.0.0.1", false},
		{"[::1]:0", "::1", "::1", true},
		{":0", wildcard, "127.0.0.1", false},
		{"localhost:0", "127.0.0.1", "127.0.0.1", false},
	} {
		t.Run(c.addr, func(t *testing.T) {
			if c.needIPv6 && !ipv6 {
				t.Skip("no IPv6 loopback")
			}
			ln, err := Listen(c.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			got := ln.Addr()
			if got.Addr().String() != c.host || got.Port() == 0 {
				t.Fatalf("Addr = %s, want %s with the port the kernel chose", got, c.host)
			}
			// The text net.Listen's Addr prints for the same bind.
			want := (&net.TCPAddr{IP: net.ParseIP(c.host), Port: int(got.Port())}).String()
			if got.String() != want {
				t.Fatalf("Addr prints %q, net prints %q", got, want)
			}
			pingPong(t, ln, net.JoinHostPort(c.dial, strconv.Itoa(int(got.Port()))))
		})
	}

	t.Run("busy", func(t *testing.T) {
		hold, err := Listen(":0")
		if err != nil {
			t.Fatal(err)
		}
		defer hold.Close()
		port := hold.Addr().Port()
		for _, addr := range []string{fmt.Sprintf(":%d", port), fmt.Sprintf("127.0.0.1:%d", port)} {
			ln, err := Listen(addr)
			if err == nil {
				ln.Close()
				t.Fatalf("Listen(%q) bound a busy port", addr)
			}
			nln, nerr := net.Listen("tcp", addr)
			if nerr == nil {
				nln.Close()
				t.Fatalf("net.Listen(%q) bound a busy port", addr)
			}
			if err.Error() != nerr.Error() || !errors.Is(err, syscall.EADDRINUSE) {
				t.Errorf("Listen(%q) = %q, net.Listen's error is %q", addr, err, nerr)
			}
		}
	})

	t.Run("refused", func(t *testing.T) {
		for addr, why := range map[string]string{
			"no-port-here":     "missing port in address",
			"[::1]":            "missing port in address",
			"example.com:9090": "neither localhost nor an IP address",
			"[fe80::1%lo]:0":   "has a zone",
			"127.0.0.1:http":   "is not a decimal number",
			"127.0.0.1:65536":  "is not a decimal number",
			"127.0.0.1:-1":     "is not a decimal number",
		} {
			ln, err := Listen(addr)
			var ae *AddrError
			if err == nil {
				ln.Close()
			}
			if !errors.As(err, &ae) || !strings.Contains(err.Error(), why) {
				t.Errorf("Listen(%q) = %v, want an *AddrError saying %q", addr, err, why)
				continue
			}
			_, _, splitErr := net.SplitHostPort(addr)
			if splitErr != nil && err.Error() != splitErr.Error() {
				t.Errorf("Listen(%q) = %q, net.SplitHostPort's error is %q", addr, err, splitErr)
			}
			if splitErr == nil && !strings.Contains(err.Error(), acceptedForms) {
				t.Errorf("Listen(%q) = %q, want it to name the accepted forms", addr, err)
			}
		}
	})

	t.Run("close wakes accept", func(t *testing.T) {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if conn != nil {
				conn.Close()
			}
			done <- err
		}()
		// Most likely Accept is waiting by now; if not, it must still
		// return os.ErrClosed once it runs.
		time.Sleep(20 * time.Millisecond)
		if err := ln.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrClosed) {
				t.Fatalf("Accept after Close = %v, want os.ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not wake the pending Accept")
		}
	})

	t.Run("header deadline", func(t *testing.T) {
		t.Parallel()
		srv, _, _ := serveCampaign(t, "c", 0)
		conn, err := net.Dial("tcp", srv.Addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		conn.SetReadDeadline(start.Add(3 * headerTimeout))
		n, err := conn.Read(make([]byte, 1))
		if took := time.Since(start); n != 0 || err != io.EOF || took < headerTimeout-time.Second {
			t.Fatalf("a silent client read %d bytes, %v after %v; want EOF once the %v header deadline passes", n, err, took, headerTimeout)
		}
	})
}

// FuzzListenAddr: no address makes the parser panic, and it takes
// exactly what net.SplitHostPort splits into an empty host, localhost or
// an IP address without a zone, and an empty or decimal port net takes.
// What it takes is what net.ResolveTCPAddr resolves, printed as net
// prints it; what it refuses is an *AddrError, with net.SplitHostPort's
// text where that fails and naming the accepted forms otherwise.
func FuzzListenAddr(f *testing.F) {
	for _, v := range []string{":9090", ":0", "127.0.0.1:0", "127.0.0.1:9090", "localhost:0", "[::1]:0", "[::]:80",
		"0.0.0.0:0", "[::ffff:127.0.0.1]:1", "[fe80::1%lo]:0", "example.com:80", "127.0.0.1:http", "127.0.0.1:65536",
		":", "no-port", "[::1", "a:b:c", "]:1", "[a]b:1", "01.2.3.4:0", "127.0.0.1:+80", "LOCALHOST:1", ":0080"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, addr string) {
		a, err := parseListenAddr(addr)
		var ae *AddrError
		if err != nil && !errors.As(err, &ae) {
			t.Fatalf("parseListenAddr(%q) = %v, want an *AddrError", addr, err)
		}
		host, port, splitErr := net.SplitHostPort(addr)
		if splitErr != nil {
			if err == nil || err.Error() != splitErr.Error() {
				t.Fatalf("parseListenAddr(%q) = %v, net.SplitHostPort's error is %v", addr, err, splitErr)
			}
			return
		}
		ip := net.ParseIP(host)
		hostOK := host == "" || host == "localhost" || ip != nil
		var netPort int
		portOK := strings.Trim(port, "0123456789") == ""
		if portOK {
			// No lookup: the port is empty or digits.
			var perr error
			netPort, perr = net.LookupPort("tcp", port)
			portOK = perr == nil
		}
		if (err == nil) != (hostOK && portOK) {
			t.Fatalf("parseListenAddr(%q) = %v; host %q ok %v, port %q ok %v", addr, err, host, hostOK, port, portOK)
		}
		if err != nil {
			if !strings.Contains(err.Error(), acceptedForms) {
				t.Fatalf("parseListenAddr(%q) = %q, want it to name the accepted forms", addr, err)
			}
			return
		}
		if int(a.port) != netPort {
			t.Fatalf("parseListenAddr(%q) port %d, net's is %d", addr, a.port, netPort)
		}
		if host == "localhost" {
			if a.ip != netip.AddrFrom4([4]byte{127, 0, 0, 1}) {
				t.Fatalf("parseListenAddr(%q) ip %v, want 127.0.0.1", addr, a.ip)
			}
			return
		}
		want, rerr := net.ResolveTCPAddr("tcp", addr)
		if rerr != nil {
			t.Fatalf("parseListenAddr(%q) took what net.ResolveTCPAddr refuses: %v", addr, rerr)
		}
		if !want.IP.Equal(net.IP(a.ip.AsSlice())) || a.String() != want.String() {
			t.Fatalf("parseListenAddr(%q) = %v (%s), net resolves %v", addr, a.ip, a, want)
		}
	})
}
