//go:build linux && (amd64 || arm64)

package netio

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// headers is how many sendmmsg headers mmsgConn.fill lays out for ms
// with GSO on: one per gsoRun, runs never spanning an mmsgCap chunk.
func headers(ms []Message) int {
	n := 0
	for len(ms) > 0 {
		chunk := ms
		if len(chunk) > mmsgCap {
			chunk = chunk[:mmsgCap]
		}
		for i := 0; i < len(chunk); n++ {
			i += gsoRun(chunk[i:])
		}
		ms = ms[len(chunk):]
	}
	return n
}

// msgs builds a write batch from (receiver, length) pairs.
func msgs(dst []netip.AddrPort, spec ...[2]int) []Message {
	ms := make([]Message, len(spec))
	for i, s := range spec {
		ms[i] = Message{Buf: make([]byte, s[1]), N: s[1], Addr: dst[s[0]]}
	}
	return ms
}

// repeat is n copies of the (receiver, length) pair.
func repeat(n, rcv, size int) [][2]int {
	s := make([][2]int, n)
	for i := range s {
		s[i] = [2]int{rcv, size}
	}
	return s
}

func TestGSORunHeaderCount(t *testing.T) {
	if got, want := int(unsafe.Sizeof(gsoCmsg{})), syscall.CmsgSpace(2); got != want {
		t.Fatalf("gsoCmsg is %d bytes, CMSG_SPACE(2) is %d", got, want)
	}
	dst := []netip.AddrPort{synthAddr(1), synthAddr(2), synthAddr(3)}
	cat := func(parts ...[][2]int) []Message {
		var all [][2]int
		for _, p := range parts {
			all = append(all, p...)
		}
		return msgs(dst, all...)
	}
	for _, tc := range []struct {
		name string
		ms   []Message
		want int
	}{
		{"one datagram", cat(repeat(1, 0, 512)), 1},
		{"all distinct receivers", cat(repeat(1, 0, 512), repeat(1, 1, 512), repeat(1, 2, 512)), 3},
		{"one run", cat(repeat(32, 0, 512)), 1},
		{"runs of 3 across receivers", cat(repeat(3, 0, 1400), repeat(3, 1, 1400), repeat(3, 2, 1400)), 3},
		{"receiver returns after another", cat(repeat(2, 0, 512), repeat(2, 1, 512), repeat(2, 0, 512)), 3},
		{"short datagram ends its run", cat(repeat(2, 0, 512), repeat(1, 0, 100)), 1},
		{"short datagram mid-run splits it", cat(repeat(2, 0, 512), repeat(1, 0, 100), repeat(2, 0, 512)), 2},
		{"longer datagram starts a run", cat(repeat(2, 0, 100), repeat(2, 0, 512)), 2},
		{"empty datagram is never a segment", cat(repeat(2, 0, 512), repeat(1, 0, 0)), 2},
		{"64 segments", cat(repeat(64, 0, 100)), 1},
		{"65 segments", cat(repeat(65, 1, 100)), 2},
		{"100 to one receiver", cat(repeat(100, 2, 512)), 2},
		// 46 × 1,400 B = 64,400 B fits, a 47th would pass gsoMaxBytes.
		{"64 KiB bound", cat(repeat(47, 0, 1400)), 2},
		{"64 KiB bound exact", cat(repeat(46, 0, 1400)), 1},
		// A run never crosses a sendmmsg: 60 + 10 split at mmsgCap.
		{"run across the mmsgCap chunk", cat(repeat(60, 0, 64), repeat(10, 1, 64)), 3},
	} {
		if got := headers(tc.ms); got != tc.want {
			t.Errorf("%s: %d headers, want %d", tc.name, got, tc.want)
		}
	}
	// The segment cap holds by itself, not only because mmsgCap is 64.
	if got := gsoRun(cat(repeat(gsoMaxSegs+1, 0, 100))); got != gsoMaxSegs {
		t.Errorf("run of %d equal datagrams: gsoRun = %d, want the cap %d", gsoMaxSegs+1, got, gsoMaxSegs)
	}
}

// gsoTestConn wraps a fresh loopback socket as an mmsgConn.
func gsoTestConn(t *testing.T) *mmsgConn {
	t.Helper()
	conn := listenUDPTB(t)
	t.Cleanup(func() { conn.Close() })
	bc, err := newMmsgConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	return bc.(*mmsgConn)
}

// stamped builds a batch from (receiver, length) pairs whose payloads
// say who they are for and where they stand in that receiver's stream,
// and returns the per-receiver streams expected on arrival.
func stamped(dst []netip.AddrPort, spec [][2]int) ([]Message, [][][]byte) {
	ms := msgs(dst, spec...)
	want := make([][][]byte, len(dst))
	for i := range ms {
		r := spec[i][0]
		for j := range ms[i].Buf {
			ms[i].Buf[j] = byte(r*31 + len(want[r])*7 + j)
		}
		want[r] = append(want[r], ms[i].Buf)
	}
	return ms, want
}

// expectStreams reads each receiver until its expected datagrams are
// in, in order and byte for byte, and then checks nothing else came.
func expectStreams(t *testing.T, rcv []*net.UDPConn, want [][][]byte) {
	t.Helper()
	buf := make([]byte, 70_000)
	for r, c := range rcv {
		for i, w := range want[r] {
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, _, err := c.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("receiver %d: datagram %d of %d: %v", r, i, len(want[r]), err)
			}
			if !bytes.Equal(buf[:n], w) {
				t.Fatalf("receiver %d: datagram %d is %d B, want %d B as sent (merged, split, reordered or corrupted)", r, i, n, len(w))
			}
		}
		c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, _, err := c.ReadFromUDPAddrPort(buf); err == nil {
			t.Fatalf("receiver %d: an extra %d B datagram after its %d", r, n, len(want[r]))
		}
	}
}

func receivers(t *testing.T, n int) ([]*net.UDPConn, []netip.AddrPort) {
	t.Helper()
	conns := make([]*net.UDPConn, n)
	addrs := make([]netip.AddrPort, n)
	for i := range conns {
		conns[i] = listenUDPTB(t)
		t.Cleanup(func() { conns[i].Close() })
		addrs[i] = conns[i].LocalAddr().(*net.UDPAddr).AddrPort()
	}
	return conns, addrs
}

// TestGSOLoopbackDelivery writes one batch that mixes runs across four
// receivers — a short datagram closing a run, one in mid-run, a longer
// one after a short one, and 100 datagrams to one receiver (more than
// gsoMaxSegs and more than mmsgCap) — with GSO on and forced off.
// Either way every datagram arrives once, intact, on its own, in its
// receiver's order.
func TestGSOLoopbackDelivery(t *testing.T) {
	var spec [][2]int
	spec = append(spec, repeat(3, 0, 200)...)
	spec = append(spec, [2]int{1, 200}, [2]int{1, 120})                // short at a run's end
	spec = append(spec, [2]int{2, 200}, [2]int{2, 90}, [2]int{2, 200}) // short in mid-run
	spec = append(spec, [2]int{2, 200}, [2]int{0, 150})
	spec = append(spec, repeat(100, 3, 300)...)
	spec = append(spec, [2]int{1, 200}, [2]int{1, 250}, [2]int{2, 1})
	for _, on := range []bool{true, false} {
		name := map[bool]string{true: "gso", false: "plain"}[on]
		t.Run(name, func(t *testing.T) {
			c := gsoTestConn(t)
			if on && !c.gso {
				t.Skip("kernel has no UDP_SEGMENT (Linux < 4.18)")
			}
			c.gso = on
			rcv, dst := receivers(t, 4)
			ms, want := stamped(dst, spec)
			if n, err := c.WriteBatch(ms); n != len(ms) || err != nil {
				t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(ms))
			}
			if c.gso != on {
				t.Fatalf("gso %v after a clean write, want %v", c.gso, on)
			}
			if on && headers(ms) >= len(ms)/4 {
				t.Fatalf("%d headers for %d datagrams: the batch hardly coalesces", headers(ms), len(ms))
			}
			expectStreams(t, rcv, want)
		})
	}
}

// TestGSOFallsBackWhenRefused: with SO_NO_CHECK on the sending socket
// the kernel refuses every GSO send (EINVAL) and takes plain ones, which
// is the case the fallback exists for. Every datagram still arrives and
// the conn stops using GSO.
func TestGSOFallsBackWhenRefused(t *testing.T) {
	c := gsoTestConn(t)
	if !c.gso {
		t.Skip("kernel has no UDP_SEGMENT (Linux < 4.18)")
	}
	var serr error
	if err := c.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatalf("SO_NO_CHECK: %v %v", err, serr)
	}
	rcv, dst := receivers(t, 2)
	var spec [][2]int
	spec = append(spec, repeat(1, 1, 300)...)
	spec = append(spec, repeat(5, 0, 300)...)
	spec = append(spec, repeat(4, 1, 300)...)
	ms, want := stamped(dst, spec)
	if n, err := c.WriteBatch(ms); n != len(ms) || err != nil {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(ms))
	}
	if c.gso {
		t.Fatal("GSO still on after the kernel refused it and took the same datagrams plain")
	}
	expectStreams(t, rcv, want)
}

// TestGSORefusedPeerKeepsGSO: a run to an address the kernel will not
// send to (port 0: EINVAL with or without GSO) is skipped datagram by
// datagram, the runs around it go, and GSO stays on for them.
func TestGSORefusedPeerKeepsGSO(t *testing.T) {
	c := gsoTestConn(t)
	if !c.gso {
		t.Skip("kernel has no UDP_SEGMENT (Linux < 4.18)")
	}
	rcv, dst := receivers(t, 1)
	dst = append(dst, netip.MustParseAddrPort("127.0.0.1:0"))
	var spec [][2]int
	spec = append(spec, repeat(2, 0, 256)...)
	spec = append(spec, repeat(3, 1, 256)...)
	spec = append(spec, repeat(2, 0, 256)...)
	ms, want := stamped(dst, spec)
	n, err := c.WriteBatch(ms)
	if n != 4 || !errors.Is(err, syscall.EINVAL) {
		t.Fatalf("WriteBatch = %d, %v; want 4, EINVAL", n, err)
	}
	if !c.gso {
		t.Fatal("one refused peer turned GSO off for the whole conn")
	}
	expectStreams(t, rcv, want[:1])
}
