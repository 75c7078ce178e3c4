//go:build !linux

package obs

import (
	"errors"
	"os"
)

// The live surface's socket code (listen_linux.go) uses Linux's accept4
// and socket flags; elsewhere Listen refuses every address.
var errListenUnsupported = errors.New("the live surface listens only on Linux")

func listenSocket(listenAddr) (*Listener, error) { return nil, errListenUnsupported }

func (l *Listener) Accept() (*os.File, error) { return nil, errListenUnsupported }

func closeWrite(*os.File) error { return errListenUnsupported }
