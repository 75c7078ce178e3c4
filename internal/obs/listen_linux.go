package obs

import (
	"errors"
	"net/netip"
	"os"
	"syscall"
)

// listenSocket makes a's listening socket as net.Listen makes one:
// non-blocking and close-on-exec, SO_REUSEADDR set, and an IPv6 socket
// that takes IPv4 connections too. A wildcard host tries [::] first and
// falls back to 0.0.0.0 where the kernel has no IPv6.
func listenSocket(a listenAddr) (*Listener, error) {
	if a.ip.IsValid() && !a.ip.IsUnspecified() {
		return bindListen(a.ip, a.port)
	}
	l, err := bindListen(netip.IPv6Unspecified(), a.port)
	if errors.Is(err, syscall.EAFNOSUPPORT) || errors.Is(err, syscall.EADDRNOTAVAIL) {
		return bindListen(netip.IPv4Unspecified(), a.port)
	}
	return l, err
}

// bindListen binds a socket to ip and port and listens on it. Its errors
// name the failed call, as net's do ("bind: address already in use").
func bindListen(ip netip.Addr, port uint16) (*Listener, error) {
	family := syscall.AF_INET
	var sa syscall.Sockaddr
	if ip.Is4() {
		sa = &syscall.SockaddrInet4{Port: int(port), Addr: ip.As4()}
	} else {
		family = syscall.AF_INET6
		sa = &syscall.SockaddrInet6{Port: int(port), Addr: ip.As16()}
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, syscall.IPPROTO_TCP)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	call, err := "setsockopt", error(nil)
	if family == syscall.AF_INET6 {
		err = syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0)
	}
	if err == nil {
		err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	}
	if err == nil {
		call, err = "bind", syscall.Bind(fd, sa)
	}
	if err == nil {
		// The kernel caps the backlog at net.core.somaxconn, the value
		// net reads for it.
		call, err = "listen", syscall.Listen(fd, 1<<16-1)
	}
	if err == nil {
		call = "getsockname"
		sa, err = syscall.Getsockname(fd)
	}
	if err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError(call, err)
	}
	l := &Listener{f: os.NewFile(uintptr(fd), "tcp")}
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		l.addr = netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		l.addr = netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), uint16(sa.Port))
	}
	if l.rc, err = l.f.SyscallConn(); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// Accept waits for the next connection and returns it as an *os.File
// served by the runtime's poller, with TCP_NODELAY and keep-alives set as
// net sets them on the connections it accepts.
func (l *Listener) Accept() (*os.File, error) {
	var fd int
	var err error
	rerr := l.rc.Read(func(s uintptr) bool {
		for {
			fd, _, err = syscall.Accept4(int(s), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			// A connection reset before it was accepted, or an
			// interrupted call, is retried at once, as net retries it.
			if err != syscall.EINTR && err != syscall.ECONNABORTED {
				return err != syscall.EAGAIN
			}
		}
	})
	if rerr != nil {
		// With no deadline set, the wait ends in error only when the
		// listener closes; the poller's error for that is not
		// os.ErrClosed, which os.File's own methods return.
		return nil, os.ErrClosed
	}
	if err != nil {
		return nil, os.NewSyscallError("accept4", err)
	}
	for _, o := range [...]struct{ level, name, value int }{
		{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
	} {
		if err := syscall.SetsockoptInt(fd, o.level, o.name, o.value); err != nil {
			syscall.Close(fd)
			return nil, os.NewSyscallError("setsockopt", err)
		}
	}
	return os.NewFile(uintptr(fd), "tcp"), nil
}

// closeWrite shuts down conn's sending side, as net.TCPConn.CloseWrite
// does.
func closeWrite(conn *os.File) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) { serr = syscall.Shutdown(int(fd), syscall.SHUT_WR) }); err != nil {
		return err
	}
	return os.NewSyscallError("shutdown", serr)
}
