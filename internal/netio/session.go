package netio

import (
	"net/netip"

	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/metrics"
	"qav/internal/transport"
)

// nack is a pending retransmission request packed in one word: the
// layer in the top byte (the wire names at most NoNack layers), the byte
// offset below it. onAck admits only offsets under the layer's sent
// bytes, which stay far below 2^56.
type nack uint64

const nackOffBits = 56

func packNack(layer int, off int64) nack { return nack(uint64(layer)<<nackOffBits | uint64(off)) }

func (nk nack) layer() int { return int(nk >> nackOffBits) }

func (nk nack) off() int64 { return int64(nk & (1<<nackOffBits - 1)) }

// nackCap bounds pending retransmissions per client. A misbehaving
// receiver can request holes faster than the congestion-controlled
// sender can repair them; beyond the cap the oldest request is dropped
// (the receiver will re-request it if it still matters) and a counter
// records the shed load.
const nackCap = 64

// nackRing is a fixed-capacity drop-oldest queue of retransmission
// requests. Its buffer is allocated at the first push: most streams
// never ask for a repair, and until one does the ring is a nil slice.
type nackRing struct {
	buf     []nack
	head, n int
}

// push queues nk and reports whether the oldest request was shed to
// make room.
func (q *nackRing) push(nk nack) (shed bool) {
	if q.buf == nil {
		q.buf = make([]nack, nackCap)
	}
	if shed = q.n == len(q.buf); shed {
		q.head = (q.head + 1) % len(q.buf)
		q.n--
	}
	q.buf[(q.head+q.n)%len(q.buf)] = nk
	q.n++
	return shed
}

func (q *nackRing) pop() nack {
	nk := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return nk
}

// queued reports whether a request equal to nk is already pending.
func (q *nackRing) queued(nk nack) bool {
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)%len(q.buf)] == nk {
			return true
		}
	}
	return false
}

// sessionInstruments are the shared (per-shard, not per-session)
// metric handles a session records through.
type sessionInstruments struct {
	Retransmits *metrics.Counter // selective retransmissions sent
	NackDrops   *metrics.Counter // retransmission requests shed at the cap
	Delivered   *metrics.Counter // acked packets credited to the controller
	// QA are the controllers' own decision counters (srv.qa.adds,
	// .drops, .drops.poordist, .drops.critical, .backoffs, .stalls),
	// bumped where the simulator's qa.* are.
	QA *core.Instruments
	// Lateness is pacing lateness in µs: the instant a packet is built
	// minus the NextSend it was scheduled for. It is what wake
	// coalescing spends to save CPU (up to a wheel tick per packet) and
	// what an overloaded shard shows first.
	Lateness *metrics.Histogram
}

// newSessionInstruments registers the server-wide session counters on
// reg; each shard adds its own Lateness histogram.
func newSessionInstruments(reg *metrics.Registry) sessionInstruments {
	return sessionInstruments{
		Retransmits: reg.Counter("srv.retransmits"),
		NackDrops:   reg.Counter("srv.nackdrops"),
		Delivered:   reg.Counter("srv.delivered"),
		QA:          core.NewInstruments(reg, "srv.qa"),
	}
}

// session is one client's stream: the shared flow.Driver (the QA +
// congestion-control loop the simulator's sources also run, here over
// transport.RAP and stepped lazily at send time) plus what only the
// server has — the wire encoding, the bounded retransmission queue,
// expiry instants and the wheel linkage. A layer's next stream offset is
// the driver's SentByLayer, which counts every new byte sent; the
// payload and instruments a packet needs are the shard's, passed in. It
// is not goroutine-safe — its owner, a MultiServer shard, touches it
// from its one goroutine only. All times are float64 seconds on the
// shard's clock.
type session struct {
	flow  flow.Driver
	addr  netip.AddrPort
	nacks nackRing

	lastRecv float64 // last ack/req arrival, for idle expiry
	deadline float64 // stream end

	// Pacing-wheel linkage (intrusive, zero-alloc: the wheel's slot
	// lists run through these fields, owned by the shard's wheel).
	wnext, wprev *session
	wslot        int32 // wheelNone, wheelImminent, or a level slot
	wtick        int64 // absolute scheduled wheel tick (valid when queued)
}

// newSession builds a stream for addr whose controller counts its
// decisions into qaIns. qa must already be validated
// (core.NewController errors only on bad Params; callers validate once
// at server construction).
func newSession(addr netip.AddrPort, qa core.Params, rcfg transport.RAPConfig, qaIns *core.Instruments, now float64) (*session, error) {
	// The controller keeps no decision log, so a stream's memory does
	// not grow with its uptime; srv.qa.* counts its decisions.
	ctrl, err := core.NewController(qa)
	if err != nil {
		return nil, err
	}
	ctrl.Instrument(nil, "srv.qa", qaIns)
	st := &session{flow: flow.New(transport.NewRAP(rcfg), ctrl, now)}
	st.restart(addr, now)
	return st, nil
}

// restart readies st for a stream to addr that joins at now, in the
// state newSession builds: the controller, the RAP sender and the driver
// restarted, no retransmission request queued, off the wheel, no
// deadline yet. What they keep — slice capacities, the window's ring,
// the NACK buffer, the attached instruments — is why a shard recycles
// an expired session rather than building one (shard.join).
func (st *session) restart(addr netip.AddrPort, now float64) {
	st.flow.Ctrl.Restart()
	st.flow.Tr.(*transport.RAP).Restart()
	st.flow.Restart(now)
	*st = session{
		flow:     st.flow,
		addr:     addr,
		nacks:    nackRing{buf: st.nacks.buf},
		lastRecv: now,
		wslot:    wheelNone,
	}
}

// buildPacket assembles the next paced data packet, carrying payload
// (pktSize-DataHeaderLen bytes), into buf (which must hold a full
// packet) and returns its wire length. The driver takes the send slot —
// step if due, layer or repair, sequence, next-send instant — and the
// session supplies the stream offset: the layer's bytes sent before
// this packet, or the oldest requested hole on a repair slot. Zero-alloc.
func (st *session) buildPacket(now float64, buf, payload []byte, ins *sessionInstruments) int {
	late := now - st.flow.NextSend
	st.flow.StepIfDue(now)
	seq, layer := st.flow.Send(now, st.nacks.n > 0)
	var off int64
	if layer == flow.Repair {
		nk := st.nacks.pop()
		layer, off = nk.layer(), nk.off()
		ins.Retransmits.Inc()
	} else {
		// Send has counted this packet into the layer's sent bytes.
		off = st.flow.SentByLayer[layer] - int64(st.flow.PacketSize)
	}
	ins.Lateness.Observe(late * 1e6)
	n, err := EncodeData(buf, DataHeader{
		Seq:        seq,
		Layer:      uint8(layer),
		LayerOff:   off,
		SendMicros: uint64(now * 1e6),
	}, payload)
	if err != nil {
		return 0 // unreachable: buf is sized to pktSize at construction
	}
	return n
}

// onAck feeds one acknowledgement to the driver and queues any
// piggybacked retransmission request.
func (st *session) onAck(now float64, a Ack, ins *sessionInstruments) {
	st.lastRecv = now
	credited := st.flow.Ack(now, a.AckSeq)
	// A request must name bytes already sent on a layer that exists;
	// NackOff is checked before it is quantized because Go's remainder
	// keeps the dividend's sign, which would round (-pktSize, 0) up to 0.
	sent := st.flow.SentByLayer
	shed := false
	if a.NackLayer != NoNack && int(a.NackLayer) < len(sent) && a.NackOff >= 0 {
		// Quantize the request to packet-aligned offsets and bound it
		// to one packet per queue entry.
		pkt := int64(st.flow.PacketSize)
		off := a.NackOff - a.NackOff%pkt
		if nk := packNack(int(a.NackLayer), off); off < sent[a.NackLayer] && !st.nacks.queued(nk) {
			shed = st.nacks.push(nk)
		}
	}
	if credited {
		ins.Delivered.Inc()
	}
	if shed {
		ins.NackDrops.Inc()
	}
}
