package netio

import "testing"

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
