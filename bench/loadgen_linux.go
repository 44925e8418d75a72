//go:build linux

package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"qav/internal/netio"
)

const (
	// viewerNet is the second octet of every impersonated viewer:
	// viewer v is 127.viewerNet.(v>>8).(v&255), all on the generator's
	// one port.
	viewerNet = 77

	rereqEvery = 250 * time.Millisecond // until first data, as qaload does
	schedEvery = 2 * time.Millisecond   // join / re-REQ scan period
	wantRcvBuf = 4 << 20
)

// pktinfoLen is sizeof(struct in_pktinfo): ifindex, spec_dst, addr.
const pktinfoLen = 12

// generator is the whole viewer population: one goroutine, one UDP
// socket bound to 0.0.0.0 with IP_PKTINFO. Each datagram it sends
// carries an in_pktinfo cmsg naming the viewer's own source address in
// 127.0.0.0/8, and each datagram it receives carries the destination
// the server wrote, which names the viewer it is for. The server keys
// sessions by source address and port, so it sees thousands of viewers.
type generator struct {
	conn   *net.UDPConn
	server netip.AddrPort
	spec   *serveSpec
	t0     time.Time

	wOOB []byte // one in_pktinfo cmsg, spec_dst rewritten per send
	rOOB []byte
	buf  []byte
	ack  [netio.AckLen]byte
	req  [netio.ReqLen]byte

	sess     []viewer
	byAddr   []int32 // low 16 address bits -> index into sess, -1 = none
	nextJoin int
	joinCap  int     // viewers admitted so far: sess[:joinCap] join when due
	waiting  []int32 // joined, no data yet: candidates for a re-REQ
	withData int     // viewers that hold at least one data packet

	rcvBuf     int // SO_RCVBUF as granted
	winPkts    int64
	jitterUs   []int32 // |inter-arrival - pkt/cap| per packet, measured windows only
	measuring  bool
	idealGapNs int64
	violations int64
	violation  string // the first one
}

// viewer is one impersonated session's receive log.
type viewer struct {
	sessionLog
	addr    [4]byte
	lastSeq int64
	pkts    int64
	phase   int64 // seeded offset of the every-n-th withheld ACK
	lastReq int64
	winTop  int8      // highest layer seen this window, -1 = nothing received
	nack    netio.Ack // NackLayer != NoNack: the NACK the next ACK carries
}

func newGenerator(server netip.AddrPort, spec *serveSpec, seed int64, sessions int) (*generator, error) {
	if sessions > 1<<16 {
		return nil, fmt.Errorf("%d viewers do not fit 127.%d.0.0/16; run for fewer seconds", sessions, viewerNet)
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return nil, err
	}
	g := &generator{
		conn: conn, server: server, spec: spec, joinCap: sessions,
		wOOB:       make([]byte, syscall.CmsgSpace(pktinfoLen)),
		rOOB:       make([]byte, 128),
		buf:        make([]byte, 2048),
		sess:       make([]viewer, sessions),
		byAddr:     make([]int32, 1<<16),
		jitterUs:   make([]int32, 0, 1<<20),
		idealGapNs: int64(float64(spec.Pkt) / spec.CapBps * 1e9),
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		if serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1); serr != nil {
			return
		}
		syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, wantRcvBuf) // best effort: the grant is reported
		g.rcvBuf, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	if err == nil {
		err = serr
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&g.wOOB[0]))
	h.Level = syscall.IPPROTO_IP
	h.Type = syscall.IP_PKTINFO
	h.SetLen(syscall.CmsgLen(pktinfoLen))

	// --seed picks which addresses the viewers get, in which order they
	// join, and where in its stream each one's withheld ACKs fall.
	rng := rand.New(rand.NewSource(seed))
	for i := range g.byAddr {
		g.byAddr[i] = -1
	}
	low := rng.Perm(1 << 16)
	for i := range g.sess {
		v := &g.sess[i]
		v.addr = [4]byte{127, viewerNet, byte(low[i] >> 8), byte(low[i])}
		g.byAddr[low[i]] = int32(i)
		v.DueNs = int64(i) * int64(spec.JoinEvery)
		v.lastSeq, v.winTop, v.nack.NackLayer = -1, -1, netio.NoNack
		if spec.DropEvery > 0 {
			v.phase = rng.Int63n(int64(spec.DropEvery))
		}
	}
	if _, err := netio.EncodeReq(g.req[:], netio.Req{DurationMs: uint32(spec.Stream / time.Millisecond)}); err != nil {
		conn.Close()
		return nil, err
	}
	return g, nil
}

func (g *generator) close() { g.conn.Close() }

// sendAs sends b to the server from viewer v's address.
func (g *generator) sendAs(v *viewer, b []byte) error {
	copy(g.wOOB[syscall.CmsgLen(0)+4:], v.addr[:]) // ipi_spec_dst
	_, _, err := g.conn.WriteMsgUDPAddrPort(b, g.wOOB, g.server)
	return err
}

// pktinfoDst returns the destination address the sender wrote, from the
// IP_PKTINFO cmsg of a received datagram.
func pktinfoDst(oob []byte) (addr [4]byte, ok bool) {
	for len(oob) >= syscall.CmsgLen(0) {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		n := int(h.Len)
		if n < syscall.CmsgLen(0) || n > len(oob) {
			return addr, false
		}
		if h.Level == syscall.IPPROTO_IP && h.Type == syscall.IP_PKTINFO && n >= syscall.CmsgLen(pktinfoLen) {
			copy(addr[:], oob[syscall.CmsgLen(0)+8:]) // ipi_addr
			return addr, true
		}
		adv := syscall.CmsgSpace(n - syscall.CmsgLen(0))
		if adv > len(oob) {
			break
		}
		oob = oob[adv:]
	}
	return addr, false
}

func (g *generator) flaw(format string, a ...any) {
	if g.violations == 0 {
		g.violation = fmt.Sprintf(format, a...)
	}
	g.violations++
}

// run is the generator loop until the wall clock reaches end: read one
// datagram, account it, acknowledge it, and every schedEvery send the
// joins that have come due and the re-REQs of viewers still waiting.
func (g *generator) run(end time.Time) error {
	now := time.Now()
	var nextSched time.Time
	for now.Before(end) {
		if !now.Before(nextSched) {
			if err := g.schedule(now); err != nil {
				return err
			}
			nextSched = now.Add(schedEvery)
			g.conn.SetReadDeadline(now.Add(2 * schedEvery))
		}
		n, oobn, _, _, err := g.conn.ReadMsgUDPAddrPort(g.buf, g.rOOB)
		now = time.Now()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			return err
		}
		if err := g.onData(now, g.buf[:n], g.rOOB[:oobn]); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) schedule(now time.Time) error {
	el := int64(now.Sub(g.t0))
	for g.nextJoin < g.joinCap && g.sess[g.nextJoin].DueNs <= el {
		v := &g.sess[g.nextJoin]
		v.lastReq = el
		if err := g.sendAs(v, g.req[:]); err != nil {
			return err
		}
		g.waiting = append(g.waiting, int32(g.nextJoin))
		g.nextJoin++
	}
	keep := g.waiting[:0]
	for _, i := range g.waiting {
		v := &g.sess[i]
		if v.FirstDataNs != 0 {
			continue
		}
		if el-v.lastReq >= int64(rereqEvery) {
			v.lastReq = el
			if err := g.sendAs(v, g.req[:]); err != nil {
				return err
			}
		}
		keep = append(keep, i)
	}
	g.waiting = keep
	return nil
}

// onData checks and accounts one data packet and sends its ACK, unless
// this is a packet the workload withholds; the packet after a withheld
// one carries the NACK for it.
func (g *generator) onData(now time.Time, b, oob []byte) error {
	dst, ok := pktinfoDst(oob)
	if !ok {
		g.flaw("datagram without IP_PKTINFO")
		return nil
	}
	idx := int32(-1)
	if dst[0] == 127 && dst[1] == viewerNet {
		idx = g.byAddr[int(dst[2])<<8|int(dst[3])]
	}
	if idx < 0 {
		g.flaw("data for %v, which is no viewer", netip.AddrFrom4(dst))
		return nil
	}
	v := &g.sess[idx]
	h, payload, err := netio.DecodeData(b)
	switch {
	case err != nil:
		g.flaw("viewer %d: %v", idx, err)
		return nil
	case len(payload) != g.spec.Pkt-netio.DataHeaderLen:
		g.flaw("viewer %d: payload %d B, want %d", idx, len(payload), g.spec.Pkt-netio.DataHeaderLen)
	case int(h.Layer) >= maxLayers || h.LayerOff < 0 || h.LayerOff%int64(g.spec.Pkt) != 0:
		g.flaw("viewer %d: layer %d offset %d", idx, h.Layer, h.LayerOff)
	case h.Seq <= v.lastSeq:
		g.flaw("viewer %d: seq %d after %d", idx, h.Seq, v.lastSeq)
	}
	v.lastSeq = h.Seq

	el := int64(now.Sub(g.t0))
	if v.FirstDataNs == 0 {
		v.FirstDataNs = el
		g.withData++
	} else if g.measuring && len(g.jitterUs) < cap(g.jitterUs) {
		d := el - v.LastDataNs - g.idealGapNs
		if d < 0 {
			d = -d
		}
		g.jitterUs = append(g.jitterUs, int32(d/1000))
	}
	v.LastDataNs = el
	v.Bytes += int64(len(b))
	v.pkts++
	if int8(h.Layer) > v.winTop {
		v.winTop = int8(h.Layer)
	}
	g.winPkts++

	if n := int64(g.spec.DropEvery); n > 0 && (v.pkts+v.phase)%n == 0 {
		v.nack = netio.Ack{NackLayer: h.Layer, NackOff: h.LayerOff, NackLen: uint32(g.spec.Pkt)}
		return nil
	}
	a := v.nack
	a.AckSeq, a.EchoMicros = h.Seq, h.SendMicros
	v.nack.NackLayer = netio.NoNack
	if _, err := netio.EncodeAck(g.ack[:], a); err != nil {
		return err
	}
	return g.sendAs(v, g.ack[:])
}

// closeWindow returns the window's packet count and the mean over the
// viewers that received anything of the layers each was being sent (its
// highest layer seen, plus one), and starts the next window.
func (g *generator) closeWindow() (pkts int64, layersMean float64) {
	var sum, n int
	for i := range g.sess {
		v := &g.sess[i]
		if v.winTop >= 0 {
			sum += int(v.winTop) + 1
			n++
		}
		v.winTop = -1
	}
	pkts, g.winPkts = g.winPkts, 0
	if n > 0 {
		layersMean = float64(sum) / float64(n)
	}
	return pkts, layersMean
}

// socketDrops reads the kernel's drop counter (datagrams the receive
// buffer refused) of the UDP socket bound to addrHex:port, from
// /proc/net/udp. addrHex is the address as that file prints it:
// 00000000 for 0.0.0.0, 0100007F for 127.0.0.1.
func socketDrops(addrHex string, port int) (int64, error) {
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	want := fmt.Sprintf("%s:%04X", addrHex, port)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 13 && fields[1] == want {
			return strconv.ParseInt(fields[len(fields)-1], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not in /proc/net/udp", want)
}
