package netio

import (
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"unsafe"

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
	for sess.flow.SentByLayer[0] < 4*512 {
		now += 0.02
		sh.pump(now)
	}
	for _, off := range []int64{-1, -511, -512, -513, -1 << 62} {
		sh.handle(inMsg{addr: addr, kind: KindAck, ack: Ack{AckSeq: -1, NackLayer: 0, NackOff: off, NackLen: 512}}, now)
		if sess.nacks.n != 0 {
			t.Fatalf("NackOff %d queued a retransmission of offset %d", off, sess.nacks.buf[sess.nacks.head].off())
		}
	}
	// An honest request mid-packet still lands on its packet boundary.
	sh.handle(inMsg{addr: addr, kind: KindAck, ack: Ack{AckSeq: -1, NackLayer: 0, NackOff: 513, NackLen: 512}}, now)
	if sess.nacks.n != 1 || sess.nacks.buf[sess.nacks.head].off() != 512 {
		t.Fatalf("NackOff 513: %d queued, head offset %d; want one request for 512", sess.nacks.n, sess.nacks.buf[sess.nacks.head].off())
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
		if q.push(packNack(0, int64(i)*512)) {
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
	if nk := q.pop(); nk.off() != 10*512 {
		t.Fatalf("head off %d want %d (drop-oldest)", nk.off(), 10*512)
	}
	if !q.queued(packNack(0, 11*512)) {
		t.Fatal("queued() lost a surviving entry")
	}
	if q.queued(packNack(0, 3*512)) {
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
		transport.RAPConfig{PacketSize: pkt, InitialRTT: rtt, MaxRate: 40_000}, ins.QA, 0)
	if err != nil {
		t.Fatal(err)
	}
	type ack struct {
		at  float64
		seq int64
	}
	var acks []ack
	buf, payload := make([]byte, pkt), make([]byte, pkt-DataHeaderLen)
	ctrl := st.flow.Ctrl
	for ctrl.Stats().Drops == 0 && st.flow.NextSend < 120 {
		if len(acks) > 0 && acks[0].at <= st.flow.NextSend {
			st.onAck(acks[0].at, Ack{AckSeq: acks[0].seq, NackLayer: NoNack}, &ins)
			acks = acks[1:]
			continue
		}
		now := st.flow.NextSend
		if st.buildPacket(now, buf, payload, &ins) == 0 {
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

// TestSessionFootprint: a served session holds only what its stream
// uses. 1,000 sessions stream for 2,000 rounds of send and ACK with no
// retransmission request; then each holds at most 1,700 B of heap, was
// built in at most 8 allocations and holds no NACK buffer. The first
// request allocates one buffer of nackCap entries, and the request past
// nackCap sheds the oldest.
func TestSessionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const sessions, rounds, pkt, rtt = 1000, 2000, 512, 0.01
	// serve_fanout's stream: 16 kB/s of 512-byte packets over eight layers.
	qa := core.Params{C: 6_000, Kmax: 2, MaxLayers: 8, StartupSec: 0.2}
	rcfg := transport.RAPConfig{PacketSize: pkt, MaxRate: 16_000, InitialRTT: 0.02}
	ins := newSessionInstruments(nil)
	ins.Lateness = metrics.NewHistogram(metrics.HistogramOpts{MinExp: 0, MaxExp: 20})
	newSess := func(i int) *session {
		st, err := newSession(synthAddr(i), qa, rcfg, ins.QA, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	allocs := testing.AllocsPerRun(100, func() { newSess(0) })
	if allocs > 8 {
		t.Errorf("newSession: %.0f allocs, want <= 8", allocs)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	all := make([]*session, sessions)
	for i := range all {
		all[i] = newSess(i)
	}
	buf, payload := make([]byte, pkt), make([]byte, pkt-DataHeaderLen)
	for r := 0; r < rounds; r++ {
		for _, st := range all {
			// RAP caps the rate at 16 kB/s, so the next send is at least
			// 32 ms away and the ACK an RTT later lands before it.
			now := st.flow.NextSend
			if st.buildPacket(now, buf, payload, &ins) == 0 {
				t.Fatal("buildPacket wrote nothing")
			}
			st.onAck(now+rtt, Ack{AckSeq: st.flow.Tr.Counters().Sent - 1, NackLayer: NoNack}, &ins)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)-int64(unsafe.Sizeof(all[0]))*sessions) / sessions
	t.Logf("after %d rounds: %.0f B of heap per session (struct %d B), %.0f allocs to build one", rounds, perSession, unsafe.Sizeof(*all[0]), allocs)
	if perSession > 1700 {
		t.Errorf("heap per session %.0f B, want <= 1700", perSession)
	}

	held := func() (n int) {
		for _, st := range all {
			if cap(st.nacks.buf) != 0 {
				n++
			}
		}
		return n
	}
	if n := held(); n != 0 {
		t.Fatalf("%d sessions hold a NACK buffer before any request", n)
	}
	st := all[0]
	if st.flow.SentByLayer[0] < (nackCap+1)*pkt {
		t.Fatalf("layer 0 sent %d B, too few for %d distinct requests", st.flow.SentByLayer[0], nackCap+1)
	}
	nackAt := func(i int) {
		now := st.flow.NextSend
		st.onAck(now, Ack{AckSeq: -1, NackLayer: 0, NackOff: int64(i) * pkt, NackLen: pkt}, &ins)
	}
	nackAt(0)
	if n := held(); n != 1 || cap(st.nacks.buf) != nackCap {
		t.Fatalf("after one request: %d sessions hold a buffer, the requester's holds %d entries; want 1 and %d", n, cap(st.nacks.buf), nackCap)
	}
	first := &st.nacks.buf[0]
	for i := 1; i < nackCap; i++ {
		nackAt(i)
	}
	if st.nacks.n != nackCap || ins.NackDrops.Load() != 0 {
		t.Fatalf("%d requests: %d queued, %d shed; want %d and 0", nackCap, st.nacks.n, ins.NackDrops.Load(), nackCap)
	}
	nackAt(nackCap)
	if st.nacks.n != nackCap || ins.NackDrops.Load() != 1 || &st.nacks.buf[0] != first {
		t.Fatalf("request %d: %d queued, %d shed, buffer reallocated %v; want %d, 1, false", nackCap+1, st.nacks.n, ins.NackDrops.Load(), &st.nacks.buf[0] != first, nackCap)
	}
	if nk := st.nacks.pop(); nk.layer() != 0 || nk.off() != pkt {
		t.Fatalf("head after shedding: layer %d offset %d, want layer 0 offset %d (drop-oldest)", nk.layer(), nk.off(), pkt)
	}
	runtime.KeepAlive(all)
}

// TestSessionOffsetsDifferential: a layer's stream offset is the
// driver's SentByLayer, not a counter of the session's own. One session
// runs a seeded mix of sends, ACKs, withheld ACKs and retransmission
// requests — mid-packet, duplicate, out of range — and every packet it
// builds is checked against byte counters the test keeps itself: new
// data carries the next sequence and its layer's next offset, and a
// repair carries the oldest request still queued, modelled here with
// the same dedupe and drop-oldest rules.
func TestSessionOffsetsDifferential(t *testing.T) {
	const pkt, rtt, maxLayers = 512, 0.05, 4
	ins := newSessionInstruments(nil)
	ins.Lateness = metrics.NewHistogram(metrics.HistogramOpts{MinExp: 0, MaxExp: 20})
	st, err := newSession(netip.AddrPort{}, core.Params{C: 6_000, Kmax: 2, MaxLayers: maxLayers, StartupSec: 0.2},
		transport.RAPConfig{PacketSize: pkt, InitialRTT: rtt, MaxRate: 40_000}, ins.QA, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	type ackAt struct {
		at  float64
		seq int64
	}
	type req struct { // a retransmission request, unpacked
		layer int
		off   int64
	}
	var (
		acks       []ackAt
		sent       [maxLayers]int64 // the test's own per-layer byte counters
		want       []req            // the requests the session must still hold, oldest first
		nextSeq    int64
		repairs    int
		sheds      int
		layersSeen [maxLayers]bool
	)
	buf, payload := make([]byte, pkt), make([]byte, pkt-DataHeaderLen)
	// nackOne attaches one random request to a, modelling what the
	// session must queue of it.
	nackOne := func(a *Ack) {
		layer := rng.Intn(maxLayers + 1) // one past the last layer is refused
		a.NackLayer = uint8(layer)
		a.NackOff = rng.Int63n(sent[0]+2*pkt) - pkt // some below 0, some past what was sent
		a.NackLen = pkt
		if layer == maxLayers || a.NackOff < 0 {
			return
		}
		off := a.NackOff - a.NackOff%pkt
		if off >= sent[layer] {
			return
		}
		nk := req{layer, off}
		for _, w := range want {
			if w == nk {
				return
			}
		}
		if len(want) == nackCap {
			want = want[1:]
			sheds++
		}
		want = append(want, nk)
	}
	request := func(now float64, seq int64) {
		a := Ack{AckSeq: seq, NackLayer: NoNack}
		switch r := rng.Intn(400); {
		case r == 0: // a storm of bare requests, past the queue's cap
			for i := 0; i < nackCap+16; i++ {
				bare := Ack{AckSeq: -1}
				nackOne(&bare)
				st.onAck(now, bare, &ins)
			}
		case r < 100:
			nackOne(&a)
		}
		st.onAck(now, a, &ins)
	}
	for step := 0; step < 20_000; step++ {
		if len(acks) > 0 && acks[0].at <= st.flow.NextSend {
			request(acks[0].at, acks[0].seq)
			acks = acks[1:]
			continue
		}
		now := st.flow.NextSend
		retx := ins.Retransmits.Load()
		n := st.buildPacket(now, buf, payload, &ins)
		h, _, err := DecodeData(buf[:n])
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if h.Seq != nextSeq {
			t.Fatalf("step %d: seq %d, want %d", step, h.Seq, nextSeq)
		}
		nextSeq++
		if isRepair := ins.Retransmits.Load() != retx; isRepair {
			if len(want) == 0 {
				t.Fatalf("step %d: repair of layer %d offset %d with no request queued", step, h.Layer, h.LayerOff)
			}
			if w := want[0]; int(h.Layer) != w.layer || h.LayerOff != w.off {
				t.Fatalf("step %d: repair of layer %d offset %d, want layer %d offset %d", step, h.Layer, h.LayerOff, w.layer, w.off)
			}
			want = want[1:]
			repairs++
		} else {
			if h.LayerOff != sent[h.Layer] {
				t.Fatalf("step %d: layer %d data at offset %d, want %d", step, h.Layer, h.LayerOff, sent[h.Layer])
			}
			sent[h.Layer] += pkt
			layersSeen[h.Layer] = true
		}
		if rng.Intn(10) != 0 { // one ACK in ten is withheld
			acks = append(acks, ackAt{now + rtt, h.Seq})
		}
	}
	if sent != [maxLayers]int64(st.flow.SentByLayer) {
		t.Errorf("end: driver counted %v layer bytes, test %v", st.flow.SentByLayer, sent)
	}
	if st.nacks.n != len(want) || int64(sheds) != ins.NackDrops.Load() {
		t.Errorf("end: session holds %d requests and shed %d, want %d and %d", st.nacks.n, ins.NackDrops.Load(), len(want), sheds)
	}
	if repairs < 100 || sheds == 0 || !layersSeen[1] || st.flow.Tr.Counters().Backoffs == 0 {
		t.Errorf("weak run: %d repairs, layers seen %v, %d backoffs", repairs, layersSeen, st.flow.Tr.Counters().Backoffs)
	}
	t.Logf("%d packets: %d repairs, %d requests shed, layer bytes %v, %d backoffs", nextSeq, repairs, sheds, sent, st.flow.Tr.Counters().Backoffs)
}
