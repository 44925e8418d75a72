package netio

import (
	"net/netip"

	"qav/internal/core"
	"qav/internal/metrics"
	"qav/internal/transport"
)

// nack is a pending retransmission request.
type nack struct {
	layer int
	off   int64
	n     int
}

// nackCap bounds pending retransmissions per client. A misbehaving
// receiver can request holes faster than the congestion-controlled
// sender can repair them; beyond the cap the oldest request is dropped
// (the receiver will re-request it if it still matters) and a counter
// records the shed load.
const nackCap = 64

// seqWindow is the per-client seq -> layer attribution ring size, a
// power of two. Memory per client scales with it.
const seqWindow = 1 << 10

// nackRing is a fixed-capacity drop-oldest queue of retransmission
// requests.
type nackRing struct {
	buf     [nackCap]nack
	head, n int
	dropped int64
}

func (q *nackRing) push(nk nack) {
	if q.n == len(q.buf) {
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.dropped++
	}
	q.buf[(q.head+q.n)%len(q.buf)] = nk
	q.n++
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
// metric handles a session records through. Nil handles are skipped, so
// a partially-instrumented session is fine.
type sessionInstruments struct {
	Retransmits *metrics.Counter // selective retransmissions sent
	NackDrops   *metrics.Counter // retransmission requests shed at the cap
	Delivered   *metrics.Counter // acked packets credited to the controller
	Backoffs    *metrics.Counter // RAP multiplicative decreases (loss inferred)
	// Lateness is pacing lateness in µs: the instant a packet is built
	// minus the nextSend it was scheduled for. It is what wake
	// coalescing spends to save CPU (up to a wheel tick per packet) and
	// what an overloaded shard shows first.
	Lateness *metrics.Histogram
}

// session is the per-client stream state: one RAP sender (the same
// transport.RAP the simulator's flows run, held by concrete pointer so
// the send path pays no interface dispatch), one quality adaptation
// controller, the seq -> layer attribution ring, per-layer stream
// offsets, and the bounded retransmission queue. It is not
// goroutine-safe — its owner, a MultiServer shard, touches it from its
// one goroutine only. All times are float64 seconds on the shard's clock.
type session struct {
	snd  *transport.RAP
	ctrl *core.Controller
	addr netip.AddrPort

	pktSize     int
	payload     []byte // shared zero payload, read-only
	seqLayer    seqRing
	layerOff    []int64 // next byte offset per layer's stream
	sentByLayer []int64 // packets per layer
	nacks       nackRing
	retransmits int64

	ins *sessionInstruments

	lastStep float64 // last RAP Step invocation
	nextSend float64 // next paced transmission instant
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
	maxL := ctrl.P.MaxLayers
	return &session{
		snd:         transport.NewRAP(rcfg),
		ctrl:        ctrl,
		addr:        addr,
		pktSize:     rcfg.PacketSize,
		payload:     payload,
		seqLayer:    newSeqRing(seqWindow),
		layerOff:    make([]int64, maxL),
		sentByLayer: make([]int64, maxL),
		lastStep:    now,
		nextSend:    now,
		lastRecv:    now,
		wslot:       wheelNone,
	}, nil
}

// step runs the periodic (once per SRTT) RAP rate decision if due.
func (st *session) step(now float64) {
	if now-st.lastStep < st.snd.StepInterval() {
		return
	}
	if b := st.snd.Step(now); b != nil {
		st.onBackoff(now, b)
	}
	st.lastStep = now
}

// buildPacket assembles the next paced data packet into buf (which must
// hold pktSize bytes) and returns its wire length. It advances the
// stream: RAP step if due, layer selection or selective retransmission,
// sequence assignment, and the next-send instant. Zero-alloc.
func (st *session) buildPacket(now float64, buf []byte) int {
	st.step(now)
	var layer int
	var off int64
	retrans := false
	// Selective retransmission (§1.3): when the rate exceeds the
	// consumption rate, spend the next slot repairing the oldest
	// requested hole instead of sending new data. Retransmissions
	// remain congestion controlled (they consume a send slot).
	if st.nacks.n > 0 && st.snd.Rate() >= st.ctrl.ConsumptionRate() {
		nk := st.nacks.pop()
		layer, off, retrans = nk.layer, nk.off, true
		st.retransmits++
		if st.ins != nil && st.ins.Retransmits != nil {
			st.ins.Retransmits.Inc()
		}
		st.ctrl.Tick(now, st.snd.Rate(), st.snd.ConservativeSlope())
	} else {
		layer = st.ctrl.PickLayer(now, st.snd.Rate(), st.snd.ConservativeSlope(), st.pktSize)
		off = st.layerOff[layer]
		st.layerOff[layer] += int64(st.pktSize)
	}
	seq := st.snd.OnSend(now)
	if !retrans {
		// Retransmitted bytes sit behind the playout point; they repair
		// holes but do not extend the receiver's buffer, so they are not
		// credited to the controller on ACK.
		st.seqLayer.put(seq, layer)
	}
	if layer >= 0 && layer < len(st.sentByLayer) {
		st.sentByLayer[layer]++
	}
	// Advance the pace from the *scheduled* instant, not the actual
	// one, so lateness (timer coalescing at the shard sweep, a long
	// inbox drain, a descheduled goroutine) is repaid by temporarily
	// closer spacing instead of silently sagging below the target rate.
	// Debt is capped at sendBurst gaps: a long stall earns a bounded
	// catch-up burst, never an unbounded line-rate blast.
	ipg := st.snd.IPG()
	base := st.nextSend
	if st.ins != nil && st.ins.Lateness != nil {
		st.ins.Lateness.Observe((now - base) * 1e6)
	}
	if floor := now - float64(sendBurst)*ipg; base < floor {
		base = floor
	}
	st.nextSend = base + ipg
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

// onAck feeds one acknowledgement through RAP and the controller, and
// queues any piggybacked retransmission request.
func (st *session) onAck(now float64, a Ack) {
	st.lastRecv = now
	if b := st.snd.OnAck(now, a.AckSeq); b != nil {
		st.onBackoff(now, b)
	}
	if layer, ok := st.seqLayer.take(a.AckSeq); ok {
		st.ctrl.OnDelivered(now, layer, st.pktSize)
		if st.ins != nil && st.ins.Delivered != nil {
			st.ins.Delivered.Inc()
		}
	}
	if a.NackLayer != NoNack && int(a.NackLayer) < len(st.layerOff) {
		// Quantize the request to packet-aligned offsets and bound it
		// to one packet per queue entry.
		pkt := int64(st.pktSize)
		off := a.NackOff - a.NackOff%pkt
		if off >= 0 && off < st.layerOff[a.NackLayer] && !st.nacks.queued(int(a.NackLayer), off) {
			before := st.nacks.dropped
			st.nacks.push(nack{layer: int(a.NackLayer), off: off, n: int(pkt)})
			if st.nacks.dropped != before && st.ins != nil && st.ins.NackDrops != nil {
				st.ins.NackDrops.Inc()
			}
		}
	}
}

// onBackoff passes a RAP backoff on to the controller and drops layer
// attribution for the packets it declared lost.
func (st *session) onBackoff(now float64, b *transport.Backoff) {
	st.ctrl.OnBackoff(now, b.NewRate, st.snd.ConservativeSlope())
	for _, q := range b.LostSeqs {
		st.seqLayer.del(q)
	}
	if st.ins != nil && st.ins.Backoffs != nil {
		st.ins.Backoffs.Inc()
	}
}
