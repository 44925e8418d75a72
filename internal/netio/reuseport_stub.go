//go:build !linux

package netio

import (
	"errors"
	"net"
)

var errNoReuseport = errors.New("netio: SO_REUSEPORT socket groups unsupported on this platform")

// ReuseportAvailable reports whether ListenReuseport works on this
// platform.
func ReuseportAvailable() bool { return false }

// ListenReuseport is unavailable off linux; callers fall back to the
// single-socket demux mode (NewMultiServer).
func ListenReuseport(network, addr string, n int) ([]*net.UDPConn, error) {
	return nil, errNoReuseport
}

// rcvbufBytes is not read off linux (the gauge reports 0).
func rcvbufBytes(*net.UDPConn) int { return 0 }
