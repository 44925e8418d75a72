// SO_REUSEPORT socket siblings: one socket per MultiServer shard.
//
// Linux (3.9+) lets N UDP sockets bind the same address:port when every
// one sets SO_REUSEPORT before bind; the kernel then steers each
// datagram to one of them by a hash of the 4-tuple, so a given client's
// packets always land on the same socket, hence the same shard, and
// reads spread across shard goroutines with no userspace hop.
//
// The stdlib syscall package does not export the option constant on
// linux (it predates the feature's ABI), and this repo is stdlib-only,
// so it is defined locally. Gated to linux like batch_mmsg.go; other
// platforms get a stub that binds one plain socket and refuses more.

//go:build linux

package netio

import (
	"context"
	"fmt"
	"net"
	"syscall"
)

// soReuseport is SO_REUSEPORT on linux (uapi asm-generic/socket.h); the
// stdlib syscall package stops at SO_REUSEADDR.
const soReuseport = 0xf

// wantRcvBuf is the receive buffer asked for on every sibling socket.
// The default (net.core.rmem_default, 208 kB) holds about 300 ACKs'
// worth of skbs: a shard that is busy for a few milliseconds — or, when
// coalescing wake-ups, deliberately away for a wheel tick — overflows
// it, and every ACK lost there is a RAP backoff the network never
// asked for. The kernel caps the request at net.core.rmem_max; the
// grant is exported as gauge srv.rcvbuf_bytes.
const wantRcvBuf = 4 << 20

// ReuseportAvailable reports whether ListenReuseport works on this
// platform.
func ReuseportAvailable() bool { return true }

// ListenReuseport binds n UDP sockets to the same address with
// SO_REUSEPORT set and a wantRcvBuf receive buffer requested, for
// NewMultiServerConns. When addr's port is 0 the
// kernel picks one for the first socket and the rest bind to it
// explicitly, so all n siblings share whatever port was assigned. On
// error, any sockets already bound are closed.
func ListenReuseport(network, addr string, n int) ([]*net.UDPConn, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netio: reuseport socket count %d < 1", n)
	}
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReuseport, 1)
				syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, wantRcvBuf) // best effort: the grant is reported
			})
			if err != nil {
				return err
			}
			return serr
		},
	}
	conns := make([]*net.UDPConn, 0, n)
	fail := func(err error) ([]*net.UDPConn, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), network, addr)
		if err != nil {
			return fail(fmt.Errorf("netio: reuseport listen %d/%d: %w", i+1, n, err))
		}
		uc, ok := pc.(*net.UDPConn)
		if !ok {
			pc.Close()
			return fail(fmt.Errorf("netio: reuseport listen: %T is not a UDP socket", pc))
		}
		conns = append(conns, uc)
		if i == 0 {
			// Pin the kernel-assigned port so the remaining siblings
			// join the same reuseport group instead of getting their
			// own ephemeral ports.
			addr = uc.LocalAddr().String()
		}
	}
	return conns, nil
}

// rcvbufBytes reads back the receive buffer the kernel granted c (it
// reports twice the usable size: bookkeeping overhead is charged to the
// same budget), or 0 if it cannot be read.
func rcvbufBytes(c *net.UDPConn) int {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0
	}
	n := 0
	rc.Control(func(fd uintptr) {
		n, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return n
}
