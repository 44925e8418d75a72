package netio

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"time"
)

// Message is one datagram in a batched read or write. For reads, Buf is
// the backing buffer, N the received length, and Addr the peer. For
// writes, Buf[:N] is sent to Addr. Buffers are caller-owned and reused
// across calls — nothing in the batch layer retains or allocates them.
type Message struct {
	Buf  []byte
	N    int
	Addr netip.AddrPort
}

// BatchConn reads and writes UDP datagrams in batches. On Linux the
// mmsg implementation moves a whole batch per syscall via recvmmsg and
// sendmmsg; everywhere else (and for A/B measurement) the generic
// implementation degrades to one datagram per syscall over the plain
// *net.UDPConn methods, so the serving path runs — and is testable — on
// any platform.
//
// Implementations are NOT goroutine-safe: each owner (the reader
// goroutine, each shard) wraps the shared socket in its own BatchConn,
// whose scratch state is single-owner while the kernel serializes the
// underlying datagram sends.
type BatchConn interface {
	// ReadBatch fills ms with up to len(ms) datagrams, blocking until at
	// least one arrives or the read deadline expires. It returns the
	// number of messages filled in.
	ReadBatch(ms []Message) (int, error)
	// TryReadBatch fills ms with whatever datagrams are already queued
	// on the socket and never waits: an empty socket is (0, nil). It
	// goes through the same poller entry as ReadBatch, so a read
	// deadline that has already passed fails it with a timeout even
	// though it would not have waited — callers clear the deadline
	// (SetReadDeadline(time.Time{})) before polling. A platform with no
	// non-blocking read returns ErrNoTryRead for every call, including
	// one with an empty ms, which is how callers probe for support.
	TryReadBatch(ms []Message) (int, error)
	// WriteBatch sends ms[i].Buf[:ms[i].N] to ms[i].Addr for every
	// message. A message the kernel refuses is skipped, not the end of
	// the batch: WriteBatch returns how many were sent and the first
	// refusal's error.
	WriteBatch(ms []Message) (int, error)
	// SetReadDeadline bounds future ReadBatch calls.
	SetReadDeadline(t time.Time) error
	// Kind identifies the implementation ("mmsg" or "generic").
	Kind() BatchKind
}

// ErrNoTryRead is TryReadBatch's answer on a platform whose batch layer
// has no non-blocking read; such a socket can only be read by waiting.
var ErrNoTryRead = errors.New("netio: non-blocking batch read unavailable on this platform")

// BatchKind selects a BatchConn implementation.
type BatchKind string

const (
	// BatchAuto picks mmsg where available, generic elsewhere.
	BatchAuto BatchKind = ""
	// BatchMmsg is the Linux sendmmsg/recvmmsg implementation.
	BatchMmsg BatchKind = "mmsg"
	// BatchGeneric is the portable one-datagram-per-syscall fallback.
	BatchGeneric BatchKind = "generic"
)

// NewBatchConn wraps conn in the requested batch implementation.
// Requesting BatchMmsg on a platform without it is an error;
// BatchAuto never fails.
func NewBatchConn(conn *net.UDPConn, kind BatchKind) (BatchConn, error) {
	switch kind {
	case BatchAuto:
		if bc, err := newMmsgConn(conn); err == nil {
			return bc, nil
		}
		return &genericBatch{conn: conn}, nil
	case BatchMmsg:
		return newMmsgConn(conn)
	case BatchGeneric:
		return &genericBatch{conn: conn}, nil
	default:
		return nil, fmt.Errorf("netio: unknown batch kind %q", kind)
	}
}

// genericBatch is the portable fallback: one datagram per syscall via
// the allocation-free AddrPort methods on *net.UDPConn.
type genericBatch struct {
	conn *net.UDPConn
	try  genericTry // TryReadBatch state; per platform, see batch_mmsg.go and batch_nommsg.go
}

func (g *genericBatch) Kind() BatchKind { return BatchGeneric }

func (g *genericBatch) SetReadDeadline(t time.Time) error { return g.conn.SetReadDeadline(t) }

// ReadBatch reads a single datagram into ms[0]. Without recvmmsg there
// is no way to drain several datagrams in one blocking call, so the
// generic batch is always size one — the A/B baseline the mmsg path is
// measured against.
func (g *genericBatch) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := g.conn.ReadFromUDPAddrPort(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N = n
	ms[0].Addr = addr
	return 1, nil
}

func (g *genericBatch) TryReadBatch(ms []Message) (int, error) { return g.try.read(g.conn, ms) }

func (g *genericBatch) WriteBatch(ms []Message) (int, error) {
	sent := 0
	var first error
	for i := range ms {
		if _, err := g.conn.WriteToUDPAddrPort(ms[i].Buf[:ms[i].N], ms[i].Addr); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		sent++
	}
	return sent, first
}
