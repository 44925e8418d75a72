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

// ListenReuseport binds one plain UDP socket off linux, where socket
// groups are unsupported: n == 1 serves as a one-shard server, and any
// larger n is refused.
func ListenReuseport(network, addr string, n int) ([]*net.UDPConn, error) {
	if n != 1 {
		return nil, errNoReuseport
	}
	la, err := net.ResolveUDPAddr(network, addr)
	if err != nil {
		return nil, err
	}
	c, err := net.ListenUDP(network, la)
	if err != nil {
		return nil, err
	}
	return []*net.UDPConn{c}, nil
}

// rcvbufBytes is not read off linux (the gauge reports 0).
func rcvbufBytes(*net.UDPConn) int { return 0 }
