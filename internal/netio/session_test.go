package netio

import (
	"math"
	"net/netip"
	"testing"

	"qav/internal/core"
	"qav/internal/metrics"
	"qav/internal/transport"
)

// TestSessionRejectsNegativeNackOffset: a NACK offset below zero names
// bytes that do not exist. Quantizing first let (-pktSize, 0) through —
// Go's remainder keeps the dividend's sign, so -1 - (-1 % 512) is 0 —
// and spent a congestion-controlled send slot retransmitting offset 0,
// which nobody asked for.
func TestSessionRejectsNegativeNackOffset(t *testing.T) {
	sh := pacerHarness(t, MultiConfig{})
	addr := synthAddr(1)
	now := 0.0
	sh.handle(inMsg{addr: addr, kind: KindReq, durMs: 60_000}, now)
	sess := sh.sessions[addr]
	for sess.layerOff[0] < 4*512 {
		now += 0.02
		sh.pump(now)
	}
	for _, off := range []int64{-1, -511, -512, -513, -1 << 62} {
		sh.handle(inMsg{addr: addr, kind: KindAck, ack: Ack{AckSeq: -1, NackLayer: 0, NackOff: off, NackLen: 512}}, now)
		if sess.nacks.n != 0 {
			t.Fatalf("NackOff %d queued a retransmission of offset %d", off, sess.nacks.buf[sess.nacks.head].off)
		}
	}
	// An honest request mid-packet still lands on its packet boundary.
	sh.handle(inMsg{addr: addr, kind: KindAck, ack: Ack{AckSeq: -1, NackLayer: 0, NackOff: 513, NackLen: 512}}, now)
	if sess.nacks.n != 1 || sess.nacks.buf[sess.nacks.head].off != 512 {
		t.Fatalf("NackOff 513: %d queued, head offset %d; want one request for 512", sess.nacks.n, sess.nacks.buf[sess.nacks.head].off)
	}
	sess.nacks.pop()
	for i := 0; i < 50; i++ {
		now += 0.02
		sh.pump(now)
	}
	if st := sh.srv.Stats(); st.Retransmits != 0 {
		t.Fatalf("srv.retransmits = %d after only negative-offset requests", st.Retransmits)
	}
}

func TestNackRingDropOldest(t *testing.T) {
	var q nackRing
	sheds := 0
	for i := 0; i < nackCap+10; i++ {
		if q.push(nack{layer: 0, off: int64(i) * 512}) {
			sheds++
		}
	}
	if q.n != nackCap {
		t.Fatalf("queue length %d want %d", q.n, nackCap)
	}
	if sheds != 10 {
		t.Fatalf("push shed %d want 10", sheds)
	}
	// The oldest 10 were shed: the head must now be entry 10.
	if nk := q.pop(); nk.off != 10*512 {
		t.Fatalf("head off %d want %d (drop-oldest)", nk.off, 10*512)
	}
	if !q.queued(0, 11*512) {
		t.Fatal("queued() lost a surviving entry")
	}
	if q.queued(0, 3*512) {
		t.Fatal("queued() found a shed entry")
	}
}

// The wire counts what the controller decides, once. One session on a
// fake clock, no socket: packets are built at their paced instants and
// ACKed an RTT later, and once it plays two layers one ACK in eight is
// lost, until a backoff drops a layer. The server's srv.qa.* counters
// must then equal the controller's own Stats, and its backoffs the
// transport's.
func TestSessionCountsControllerDecisions(t *testing.T) {
	reg := metrics.NewRegistry()
	ins := newSessionInstruments(reg)
	ins.Lateness = reg.Histogram("srv.pacing.lateness_us", metrics.HistogramOpts{MinExp: 0, MaxExp: 20})
	const pkt, rtt = 512, 0.2
	st, err := newSession(netip.AddrPort{}, core.Params{C: 10_000, Kmax: 2, MaxLayers: 3, StartupSec: 0.1},
		transport.RAPConfig{PacketSize: pkt, InitialRTT: rtt, MaxRate: 40_000}, make([]byte, pkt-DataHeaderLen), &ins, 0)
	if err != nil {
		t.Fatal(err)
	}
	type ack struct {
		at  float64
		seq int64
	}
	var acks []ack
	buf := make([]byte, pkt)
	ctrl := st.flow.Ctrl
	for ctrl.Stats().Drops == 0 && st.flow.NextSend < 120 {
		if len(acks) > 0 && acks[0].at <= st.flow.NextSend {
			st.onAck(acks[0].at, Ack{AckSeq: acks[0].seq, NackLayer: NoNack})
			acks = acks[1:]
			continue
		}
		now := st.flow.NextSend
		if st.buildPacket(now, buf) == 0 {
			t.Fatal("buildPacket wrote nothing")
		}
		seq := st.flow.Tr.Counters().Sent - 1
		if ctrl.ActiveLayers() < 2 || seq%8 != 0 {
			acks = append(acks, ack{now + rtt, seq})
		}
	}
	want := ctrl.Stats()
	if want.Drops == 0 || want.Backoffs == 0 || want.Adds == 0 {
		t.Fatalf("stats %+v by t=%v: the session never backed off into a drop", want, st.flow.NextSend)
	}
	got := reg.Snapshot().Counters
	for name, n := range map[string]int{
		"srv.qa.adds":           want.Adds,
		"srv.qa.drops":          want.Drops,
		"srv.qa.drops.poordist": int(math.Round(want.PoorDistPct * float64(want.Drops) / 100)),
		"srv.qa.backoffs":       want.Backoffs,
	} {
		if got[name] != int64(n) {
			t.Errorf("%s = %d, controller counted %d", name, got[name], n)
		}
	}
	if tr := st.flow.Tr.Counters().Backoffs; got["srv.qa.backoffs"] != tr {
		t.Errorf("srv.qa.backoffs = %d, transport backed off %d times", got["srv.qa.backoffs"], tr)
	}
}
