package obs

import (
	"fmt"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// The live surface listens on a TCP socket of its own, made with package
// syscall (listen_linux.go) rather than package net. Where cgo is
// available, net links runtime/cgo and with it libc and the dynamic
// loader; without net, every binary that links this package is a static,
// pure-Go executable.
//
// Listen takes an address of one of a few forms: an empty or wildcard
// host, localhost, or an IP address, then a decimal port. Those bind as
// net.Listen("tcp", addr) binds them, and fail with its error texts. It
// takes no host name but localhost, which binds 127.0.0.1 as net's
// resolver gives it, and no zoned IPv6 address or named port.

// acceptedForms names the addresses Listen takes.
const acceptedForms = "accepted: :PORT, localhost:PORT, IPv4:PORT or [IPv6]:PORT, with a decimal PORT from 0 to 65535"

// Listener is a TCP listening socket. Its descriptor is non-blocking and
// wrapped in an *os.File, so the runtime's poller serves Accept, and the
// reads, writes and deadlines of each connection it returns, as it serves
// package net's.
type Listener struct {
	f    *os.File
	rc   syscall.RawConn
	addr netip.AddrPort
}

// Addr is the bound address as the kernel reports it: with port 0, the
// port it chose; with an empty or wildcard host, [::], or 0.0.0.0 where
// IPv6 is unavailable.
func (l *Listener) Addr() netip.AddrPort { return l.addr }

// Close closes the socket. A pending Accept returns an error matching
// os.ErrClosed.
func (l *Listener) Close() error { return l.f.Close() }

// AddrError is an address Listen refuses before it makes a socket. It
// reads as package net's address errors read.
type AddrError struct{ Addr, Err string }

func (e *AddrError) Error() string {
	if e.Addr == "" {
		return e.Err
	}
	return "address " + e.Addr + ": " + e.Err
}

// SplitHostPort splits addr into its host and port as net.SplitHostPort
// does: a host with no colon, or one in brackets, then a colon and a port
// with no colon. Its errors are *AddrError with net's texts.
func SplitHostPort(addr string) (host, port string, err error) {
	fail := func(why string) (string, string, error) { return "", "", &AddrError{Addr: addr, Err: why} }
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return fail("missing port in address")
	}
	// No '[' may follow from (and no ']' before) where the brackets, if
	// any, allow one.
	from, until := 0, 0
	if addr[0] == '[' {
		// The first ']' must come just before the last ':'.
		end := strings.IndexByte(addr, ']')
		switch {
		case end < 0:
			return fail("missing ']' in address")
		case end+1 == i:
		case end+1 < len(addr) && addr[end+1] == ':':
			return fail("too many colons in address")
		default:
			return fail("missing port in address")
		}
		host, from, until = addr[1:end], 1, end+1
	} else {
		host = addr[:i]
		if strings.IndexByte(host, ':') >= 0 {
			return fail("too many colons in address")
		}
	}
	if strings.IndexByte(addr[from:], '[') >= 0 {
		return fail("unexpected '[' in address")
	}
	if strings.IndexByte(addr[until:], ']') >= 0 {
		return fail("unexpected ']' in address")
	}
	return host, addr[i+1:], nil
}

// listenAddr is an address Listen takes: an IP address, unmapped, or the
// zero Addr for an empty host, and a port.
type listenAddr struct {
	ip   netip.Addr
	port uint16
}

// parseListenAddr parses addr, refusing what Listen does not take.
func parseListenAddr(addr string) (listenAddr, error) {
	host, port, err := SplitHostPort(addr)
	if err != nil {
		return listenAddr{}, err
	}
	refuse := func(why string) (listenAddr, error) {
		return listenAddr{}, &AddrError{Addr: addr, Err: why + " (" + acceptedForms + ")"}
	}
	var a listenAddr
	switch host {
	case "":
	case "localhost":
		a.ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	default:
		ip, err := netip.ParseAddr(host)
		switch {
		case err != nil:
			return refuse("host " + strconv.Quote(host) + " is neither localhost nor an IP address")
		case ip.Zone() != "":
			return refuse("host " + strconv.Quote(host) + " has a zone")
		}
		a.ip = ip.Unmap()
	}
	// An empty port is port 0, as in package net.
	if port != "" {
		n, err := strconv.ParseUint(port, 10, 16)
		if err != nil {
			return refuse("port " + strconv.Quote(port) + " is not a decimal number from 0 to 65535")
		}
		a.port = uint16(n)
	}
	return a, nil
}

// String prints a as package net's errors print the address they failed
// to listen on.
func (a listenAddr) String() string {
	if !a.ip.IsValid() {
		return ":" + strconv.Itoa(int(a.port))
	}
	return netip.AddrPortFrom(a.ip, a.port).String()
}

// Listen binds addr and listens on it. An empty or wildcard host binds
// [::] with IPv4 connections accepted too, or 0.0.0.0 where IPv6 is
// unavailable; localhost binds 127.0.0.1. An address Listen does not take
// is an *AddrError; a failed bind reads as net.Listen's, such as "listen
// tcp :9090: bind: address already in use".
func Listen(addr string) (*Listener, error) {
	a, err := parseListenAddr(addr)
	if err != nil {
		return nil, err
	}
	l, err := listenSocket(a)
	if err != nil {
		return nil, fmt.Errorf("listen tcp %s: %w", a, err)
	}
	return l, nil
}
