// Linux batched UDP I/O: recvmmsg/sendmmsg move a whole batch of
// datagrams per syscall, which is where a multi-client UDP server's
// cycles go once the per-packet work is allocation-free. The usual road
// here is golang.org/x/net/ipv4.(*PacketConn).ReadBatch; this repo is
// stdlib-only, so the same mechanism is built directly on the raw
// syscalls over the net.UDPConn's integrated poller (SyscallConn), which
// keeps deadline and readiness semantics identical to the plain conn.
//
// Gated to 64-bit little-endian Linux (amd64/arm64 — the two platforms
// this serves on): the mmsghdr layout and the in-memory byte order of
// sockaddr ports below assume both. Everywhere else NewBatchConn
// degrades to the generic implementation.

//go:build linux && (amd64 || arm64)

package netio

import (
	"fmt"
	"math/bits"
	"net"
	"net/netip"
	"syscall"
	"time"
	"unsafe"
)

// mmsgCap is the scratch capacity per mmsgConn: the largest batch one
// ReadBatch/WriteBatch call can move in a single syscall.
const mmsgCap = 64

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit targets.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgConn implements BatchConn over recvmmsg/sendmmsg. Not
// goroutine-safe: hdrs/iovs/names are single-owner scratch. Multiple
// mmsgConns may wrap the same socket (one per shard); the kernel
// serializes the datagram syscalls.
type mmsgConn struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6

	// Per-call scratch threaded through the prebound readiness
	// callbacks (method values, so rc.Read/rc.Write calls do not mint a
	// closure per packet batch).
	nmsgs   int
	got     int
	errno   syscall.Errno
	readFn  func(fd uintptr) bool
	tryFn   func(fd uintptr) bool
	writeFn func(fd uintptr) bool
}

func newMmsgConn(conn *net.UDPConn) (BatchConn, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("netio: raw conn: %w", err)
	}
	c := &mmsgConn{
		conn:  conn,
		rc:    rc,
		hdrs:  make([]mmsghdr, mmsgCap),
		iovs:  make([]syscall.Iovec, mmsgCap),
		names: make([]syscall.RawSockaddrInet6, mmsgCap),
	}
	c.readFn = c.doRecv
	c.tryFn = c.doTryRecv
	c.writeFn = c.doSend
	return c, nil
}

func (c *mmsgConn) Kind() BatchKind { return BatchMmsg }

func (c *mmsgConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// doRecv and doSend use RawSyscall6, which does not tell the scheduler
// the thread is in a syscall. That is right for these calls and worth a
// lot: the socket is non-blocking, so they never sleep in the kernel,
// but a full batch takes 50-100 µs, longer than sysmon's 20 µs poll —
// with Syscall6 sysmon retook the P mid-call nearly every time, handed
// it to another thread, and the shard's thread had to queue to get it
// back (thousands of extra context switches per second per shard). The
// price is that a GC stop-the-world waits out a call in progress.
func (c *mmsgConn) doRecv(fd uintptr) bool {
	n, _, e := syscall.RawSyscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&c.hdrs[0])), uintptr(c.nmsgs), 0, 0, 0)
	if e == syscall.EAGAIN || e == syscall.EWOULDBLOCK {
		return false // wait for readability, honoring the deadline
	}
	c.got, c.errno = int(n), e
	return true
}

// doTryRecv is doRecv for TryReadBatch: an empty socket is a result
// (nothing read), not a reason to wait.
func (c *mmsgConn) doTryRecv(fd uintptr) bool {
	if !c.doRecv(fd) {
		c.got, c.errno = 0, 0
	}
	return true
}

func (c *mmsgConn) doSend(fd uintptr) bool {
	n, _, e := syscall.RawSyscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&c.hdrs[0])), uintptr(c.nmsgs), 0, 0, 0)
	if e == syscall.EAGAIN || e == syscall.EWOULDBLOCK {
		return false
	}
	c.got, c.errno = int(n), e
	return true
}

func (c *mmsgConn) ReadBatch(ms []Message) (int, error) { return c.recv(ms, c.readFn) }

func (c *mmsgConn) TryReadBatch(ms []Message) (int, error) { return c.recv(ms, c.tryFn) }

// recv is one recvmmsg through the poller: fn decides whether an empty
// socket waits for readability (ReadBatch) or returns (TryReadBatch).
func (c *mmsgConn) recv(ms []Message, fn func(fd uintptr) bool) (int, error) {
	if len(ms) > mmsgCap {
		ms = ms[:mmsgCap]
	}
	if len(ms) == 0 {
		return 0, nil
	}
	for i := range ms {
		c.iovs[i].Base = &ms[i].Buf[0]
		c.iovs[i].Len = uint64(len(ms[i].Buf))
		h := &c.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&c.names[i]))
		h.Namelen = syscall.SizeofSockaddrInet6
		h.Iov = &c.iovs[i]
		h.Iovlen = 1
		c.hdrs[i].n = 0
	}
	c.nmsgs = len(ms)
	if err := c.rc.Read(fn); err != nil {
		return 0, err // deadline and closed-conn errors surface here
	}
	if c.errno != 0 {
		return 0, c.errno
	}
	for i := 0; i < c.got; i++ {
		ms[i].N = int(c.hdrs[i].n)
		ms[i].Addr = sockaddrToAddrPort(&c.names[i])
	}
	return c.got, nil
}

func (c *mmsgConn) WriteBatch(ms []Message) (int, error) {
	sent := 0
	for sent < len(ms) {
		batch := ms[sent:]
		if len(batch) > mmsgCap {
			batch = batch[:mmsgCap]
		}
		for i := range batch {
			c.iovs[i].Base = &batch[i].Buf[0]
			c.iovs[i].Len = uint64(batch[i].N)
			h := &c.hdrs[i].hdr
			h.Name = (*byte)(unsafe.Pointer(&c.names[i]))
			h.Namelen = addrPortToSockaddr(&c.names[i], batch[i].Addr)
			h.Iov = &c.iovs[i]
			h.Iovlen = 1
			c.hdrs[i].n = 0
		}
		c.nmsgs = len(batch)
		if err := c.rc.Write(c.writeFn); err != nil {
			return sent, err
		}
		if c.errno != 0 {
			return sent, c.errno
		}
		if c.got == 0 {
			return sent, fmt.Errorf("netio: sendmmsg made no progress")
		}
		sent += c.got
	}
	return sent, nil
}

// addrPortToSockaddr encodes ap into sa (an Inet6-sized buffer that
// also serves as sockaddr_in) and returns the sockaddr length. Ports
// live in network byte order inside the native-endian uint16 field, so
// they are byte-reversed on these little-endian targets.
func addrPortToSockaddr(sa *syscall.RawSockaddrInet6, ap netip.AddrPort) uint32 {
	addr := ap.Addr()
	if addr.Is4() || addr.Is4In6() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		sa4.Family = syscall.AF_INET
		sa4.Port = bits.ReverseBytes16(ap.Port())
		sa4.Addr = addr.As4()
		return syscall.SizeofSockaddrInet4
	}
	sa.Family = syscall.AF_INET6
	sa.Port = bits.ReverseBytes16(ap.Port())
	sa.Addr = addr.As16()
	sa.Scope_id = 0
	return syscall.SizeofSockaddrInet6
}

// sockaddrToAddrPort decodes a kernel-filled sockaddr. IPv4-mapped IPv6
// addresses are unmapped so a client always keys to the same AddrPort
// regardless of which implementation read its datagram.
func sockaddrToAddrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), bits.ReverseBytes16(sa4.Port))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), bits.ReverseBytes16(sa.Port))
	default:
		return netip.AddrPort{}
	}
}

// genericTry is the generic implementation's non-blocking read: one
// recvfrom per datagram until the socket is empty, inside a poller
// callback that never asks to wait. It sits behind this file's build
// tag because it shares the sockaddr decoding above; raw recvfrom
// rather than syscall.Recvfrom because that allocates a Sockaddr per
// datagram.
type genericTry struct {
	rc    syscall.RawConn
	fn    func(fd uintptr) bool // bound once: no closure per call
	ms    []Message
	got   int
	errno syscall.Errno
	name  syscall.RawSockaddrInet6
}

func (t *genericTry) read(conn *net.UDPConn, ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if t.rc == nil {
		rc, err := conn.SyscallConn()
		if err != nil {
			return 0, fmt.Errorf("netio: raw conn: %w", err)
		}
		t.rc, t.fn = rc, t.drain
	}
	t.ms = ms
	err := t.rc.Read(t.fn)
	t.ms = nil
	if err != nil {
		return 0, err
	}
	if t.got == 0 && t.errno != 0 {
		return 0, t.errno
	}
	return t.got, nil // datagrams already read outrank the error that ended the loop
}

func (t *genericTry) drain(fd uintptr) bool {
	t.got, t.errno = 0, 0
	for t.got < len(t.ms) {
		m := &t.ms[t.got]
		namelen := uint32(syscall.SizeofSockaddrInet6)
		n, _, e := syscall.Syscall6(syscall.SYS_RECVFROM, fd,
			uintptr(unsafe.Pointer(&m.Buf[0])), uintptr(len(m.Buf)), 0,
			uintptr(unsafe.Pointer(&t.name)), uintptr(unsafe.Pointer(&namelen)))
		if e != 0 {
			if e != syscall.EAGAIN && e != syscall.EWOULDBLOCK {
				t.errno = e
			}
			break
		}
		m.N = int(n)
		m.Addr = sockaddrToAddrPort(&t.name)
		t.got++
	}
	return true
}
