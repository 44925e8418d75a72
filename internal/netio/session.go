package netio

import (
	"net/netip"

	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/metrics"
	"qav/internal/transport"
)

// nack is a pending retransmission request.
type nack struct {
	layer int
	off   int64
}

// nackCap bounds pending retransmissions per client. A misbehaving
// receiver can request holes faster than the congestion-controlled
// sender can repair them; beyond the cap the oldest request is dropped
// (the receiver will re-request it if it still matters) and a counter
// records the shed load.
const nackCap = 64

// nackRing is a fixed-capacity drop-oldest queue of retransmission
// requests.
type nackRing struct {
	buf     [nackCap]nack
	head, n int
}

// push queues nk and reports whether the oldest request was shed to
// make room.
func (q *nackRing) push(nk nack) (shed bool) {
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

// queued reports whether a request for (layer, off) is already pending.
func (q *nackRing) queued(layer int, off int64) bool {
	for i := 0; i < q.n; i++ {
		nk := &q.buf[(q.head+i)%len(q.buf)]
		if nk.layer == layer && nk.off == off {
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
	Backoffs    *metrics.Counter // rate decreases (loss inferred)
	// Lateness is pacing lateness in µs: the instant a packet is built
	// minus the NextSend it was scheduled for. It is what wake
	// coalescing spends to save CPU (up to a wheel tick per packet) and
	// what an overloaded shard shows first.
	Lateness *metrics.Histogram
}

// session is one client's stream: the shared flow.Driver (the QA +
// congestion-control loop the simulator's sources also run, here over
// transport.RAP and stepped lazily at send time) plus what only the
// server has — the wire encoding, per-layer stream offsets, the bounded
// retransmission queue, expiry instants and the wheel linkage. It is not
// goroutine-safe — its owner, a MultiServer shard, touches it from its
// one goroutine only. All times are float64 seconds on the shard's clock.
type session struct {
	flow flow.Driver
	addr netip.AddrPort

	payload  []byte  // shared zero payload, read-only
	layerOff []int64 // next byte offset per layer's stream
	nacks    nackRing

	ins *sessionInstruments // nil: uninstrumented (tests)

	lastRecv float64 // last ack/req arrival, for idle expiry
	deadline float64 // stream end

	// Pacing-wheel linkage (intrusive, zero-alloc: the wheel's slot
	// lists run through these fields, owned by the shard's wheel).
	wnext, wprev *session
	wslot        int32 // wheelNone, wheelImminent, or a level slot
	wtick        int64 // absolute scheduled wheel tick (valid when queued)
}

// newSession builds a stream for addr. qa must already be validated
// (core.NewController errors only on bad Params; callers validate once
// at server construction) and payload must be pktSize-DataHeaderLen
// bytes.
func newSession(addr netip.AddrPort, qa core.Params, rcfg transport.RAPConfig, payload []byte, now float64) (*session, error) {
	if qa.MaxEvents == 0 {
		// A served stream can run for hours; a client whose rate
		// straddles a layer boundary churns add/drop events forever, so
		// the decision log must not grow without bound.
		qa.MaxEvents = 4096
	}
	ctrl, err := core.NewController(qa)
	if err != nil {
		return nil, err
	}
	return &session{
		flow:     flow.New(transport.NewRAP(rcfg), ctrl, now),
		addr:     addr,
		payload:  payload,
		layerOff: make([]int64, ctrl.P.MaxLayers),
		lastRecv: now,
		wslot:    wheelNone,
	}, nil
}

// buildPacket assembles the next paced data packet into buf (which must
// hold a full packet) and returns its wire length. The driver takes the
// send slot — step if due, layer or repair, sequence, next-send instant
// — and the session supplies the stream offset: the next new bytes of
// the layer, or the oldest requested hole on a repair slot. Zero-alloc.
func (st *session) buildPacket(now float64, buf []byte) int {
	late := now - st.flow.NextSend
	backedOff := st.flow.StepIfDue(now)
	seq, layer := st.flow.Send(now, st.nacks.n > 0)
	repair := layer == flow.Repair
	var off int64
	if repair {
		nk := st.nacks.pop()
		layer, off = nk.layer, nk.off
	} else {
		off = st.layerOff[layer]
		st.layerOff[layer] += int64(st.flow.PacketSize)
	}
	if st.ins != nil {
		st.ins.Lateness.Observe(late * 1e6)
		if backedOff {
			st.ins.Backoffs.Inc()
		}
		if repair {
			st.ins.Retransmits.Inc()
		}
	}
	n, err := EncodeData(buf, DataHeader{
		Seq:        seq,
		Layer:      uint8(layer),
		LayerOff:   off,
		SendMicros: uint64(now * 1e6),
	}, st.payload)
	if err != nil {
		return 0 // unreachable: buf is sized to pktSize at construction
	}
	return n
}

// onAck feeds one acknowledgement to the driver and queues any
// piggybacked retransmission request.
func (st *session) onAck(now float64, a Ack) {
	st.lastRecv = now
	backedOff, credited := st.flow.Ack(now, a.AckSeq)
	// A request must name bytes already sent on a layer that exists;
	// NackOff is checked before it is quantized because Go's remainder
	// keeps the dividend's sign, which would round (-pktSize, 0) up to 0.
	shed := false
	if a.NackLayer != NoNack && int(a.NackLayer) < len(st.layerOff) && a.NackOff >= 0 {
		// Quantize the request to packet-aligned offsets and bound it
		// to one packet per queue entry.
		pkt := int64(st.flow.PacketSize)
		off := a.NackOff - a.NackOff%pkt
		if off < st.layerOff[a.NackLayer] && !st.nacks.queued(int(a.NackLayer), off) {
			shed = st.nacks.push(nack{layer: int(a.NackLayer), off: off})
		}
	}
	if st.ins != nil {
		if backedOff {
			st.ins.Backoffs.Inc()
		}
		if credited {
			st.ins.Delivered.Inc()
		}
		if shed {
			st.ins.NackDrops.Inc()
		}
	}
}
