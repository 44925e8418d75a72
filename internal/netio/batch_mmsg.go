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

// UDP generic segmentation offload (Linux 4.18+): one sendmsg whose
// UDP_SEGMENT cmsg carries gso_size N hands the kernel a buffer that
// leaves the host as datagrams of N bytes each, the last one possibly
// shorter. Receivers see ordinary datagrams. The stdlib predates the
// option, so its number is pinned here.
const (
	udpSegment = 103 // UDP_SEGMENT, level IPPROTO_UDP
	// gsoMaxSegs is UDP_MAX_SEGMENTS on kernels before 6.x (later ones
	// allow 128).
	gsoMaxSegs = 64
	// gsoMaxBytes bounds a run's payload: a GSO buffer is still one UDP
	// send and must fit the 16-bit length fields (IPv6 header, the
	// larger, plus the UDP header).
	gsoMaxBytes = 65535 - 40 - 8
)

// gsoCmsg is one UDP_SEGMENT control message, CMSG_SPACE(2) bytes.
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// gsoRun is how many messages at the head of ms one header can carry as
// a GSO run: consecutive messages to ms[0].Addr in which every datagram
// but the last is ms[0].N bytes long (the gso_size) and the last is no
// longer, at most gsoMaxSegs of them and gsoMaxBytes in all. A run of 1
// is an ordinary datagram.
func gsoRun(ms []Message) int {
	size, total := ms[0].N, ms[0].N
	k := 1
	for k < len(ms) && k < gsoMaxSegs {
		m := &ms[k]
		if m.Addr != ms[0].Addr || m.N > size || m.N == 0 || total+m.N > gsoMaxBytes {
			break
		}
		total += m.N
		k++
		if m.N < size {
			break // a short datagram ends the run
		}
	}
	return k
}

// mmsgConn implements BatchConn over recvmmsg/sendmmsg. Not
// goroutine-safe: hdrs/iovs/names/ctrl/runs are single-owner scratch.
// Multiple mmsgConns may wrap the same socket (one per shard); the
// kernel serializes the datagram syscalls.
type mmsgConn struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	ctrl  []gsoCmsg // one UDP_SEGMENT cmsg per header
	runs  []int     // messages carried by each header of a write

	// gso: write runs of same-destination datagrams as one header each.
	// Set by the probe in newMmsgConn, cleared for good when the kernel
	// refuses a GSO header but takes the same datagrams one by one.
	gso bool

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
		ctrl:  make([]gsoCmsg, mmsgCap),
		runs:  make([]int, mmsgCap),
	}
	for i := range c.ctrl {
		c.ctrl[i].hdr.Level = syscall.IPPROTO_UDP
		c.ctrl[i].hdr.Type = udpSegment
		c.ctrl[i].hdr.SetLen(syscall.CmsgLen(2))
	}
	// The option exists (Linux 4.18+) if reading it succeeds.
	var probe error
	if err := rc.Control(func(fd uintptr) {
		_, probe = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
	}); err == nil && probe == nil {
		c.gso = true
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
		h.Control, h.Controllen = nil, 0 // a write may have left a cmsg here
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

// WriteBatch sends ms in sendmmsg calls of up to mmsgCap messages, one
// GSO run (gsoRun) per header while c.gso holds. sendmmsg stops at the
// first header the kernel refuses, and that refusal is the header's
// own (an address the kernel will not send to, say), so the refused
// message is skipped and the rest still go. A refused GSO header is
// first resent as plain datagrams: if they go, the refusal was GSO's
// (EIO without checksum offload; EINVAL for gso_size beyond the path
// MTU or under SO_NO_CHECK) and the conn stops using it; if the first
// is refused too, it is skipped and GSO stays on, so a peer the kernel
// will not send to cannot turn GSO off for its shard-mates.
func (c *mmsgConn) WriteBatch(ms []Message) (int, error) {
	sent := 0
	var first error
	plain := 0       // messages at the head of ms[i:] to resend one per header
	verdict := false // the next call's first header is such a resend
	for i := 0; i < len(ms); {
		c.nmsgs = c.fill(ms[i:], plain)
		if err := c.rc.Write(c.writeFn); err != nil {
			return sent, err // deadline and closed-conn errors surface here
		}
		if c.errno != 0 { // hdrs[0] was refused, nothing went
			if c.runs[0] > 1 {
				plain, verdict = c.runs[0], true
				continue
			}
			if first == nil {
				first = c.errno
			}
			i++
			plain, verdict = max(plain-1, 0), false
			continue
		}
		if c.got == 0 {
			return sent, fmt.Errorf("netio: sendmmsg made no progress")
		}
		if verdict {
			c.gso, verdict = false, false
		}
		for h := 0; h < c.got; h++ {
			i += c.runs[h]
			sent += c.runs[h]
			plain = max(plain-c.runs[h], 0)
		}
	}
	return sent, first
}

// fill lays out one sendmmsg's headers for the head of ms (at most
// mmsgCap messages): the first `plain` messages one per header, the
// rest one GSO run per header while c.gso holds. It records each
// header's message count in c.runs and returns the header count.
func (c *mmsgConn) fill(ms []Message, plain int) int {
	if len(ms) > mmsgCap {
		ms = ms[:mmsgCap]
	}
	nh := 0
	for i := 0; i < len(ms); nh++ {
		k := 1
		if c.gso && i >= plain {
			k = gsoRun(ms[i:])
		}
		for j := i; j < i+k; j++ {
			c.iovs[j].Base = &ms[j].Buf[0]
			c.iovs[j].Len = uint64(ms[j].N)
		}
		h := &c.hdrs[nh].hdr
		h.Name = (*byte)(unsafe.Pointer(&c.names[nh]))
		h.Namelen = addrPortToSockaddr(&c.names[nh], ms[i].Addr)
		h.Iov = &c.iovs[i]
		h.Iovlen = uint64(k)
		h.Control, h.Controllen = nil, 0
		if k > 1 {
			c.ctrl[nh].size = uint16(ms[i].N)
			h.Control = (*byte)(unsafe.Pointer(&c.ctrl[nh]))
			h.SetControllen(int(unsafe.Sizeof(c.ctrl[nh])))
		}
		c.hdrs[nh].n = 0
		c.runs[nh] = k
		i += k
	}
	return nh
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
