//go:build !(linux && (amd64 || arm64))

package netio

import (
	"errors"
	"net"
)

// errNoMmsg reports that the batched syscall implementation is gated
// off on this platform; BatchAuto falls back to generic.
var errNoMmsg = errors.New("netio: mmsg batch I/O unavailable on this platform")

func newMmsgConn(conn *net.UDPConn) (BatchConn, error) { return nil, errNoMmsg }

// genericTry is the generic implementation's non-blocking read, which
// this platform does not have: the zero-allocation version is raw
// recvfrom (see batch_mmsg.go). A shard that gets ErrNoTryRead keeps
// waiting for each arrival.
type genericTry struct{}

func (genericTry) read(*net.UDPConn, []Message) (int, error) { return 0, ErrNoTryRead }
