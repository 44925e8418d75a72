package netio

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"qav/internal/video"
)

// ClientStats summarizes what a viewer received and could play.
type ClientStats struct {
	Packets int64
	Bytes   int64
	// ByLayer counts bytes per layer. It grows on demand to the highest
	// layer seen; index through LayerBytes to avoid bounds worries.
	ByLayer       []int64
	HighestLayer  int
	FirstArrival  time.Duration
	LastArrival   time.Duration
	ReorderEvents int64
	// Retransmits counts repaired holes: in-order arrivals (not
	// reorders) that fill bytes behind their layer's frontier, the
	// selective retransmissions a NACK asked for. Duplicates counts
	// arrivals that add no bytes. Both need the playout model
	// (DialVideo) and count only layers it decodes.
	Retransmits int64
	Duplicates  int64
	NacksSent   int64

	// Playback holds the playout-model quality metrics (decodable
	// layer-seconds, stalls, per-layer gaps) when the client was
	// created with a video receiver (DialVideo).
	Playback video.Stats
}

// LayerBytes returns the bytes received for layer l, zero for layers
// never seen (including l beyond the slice).
func (st ClientStats) LayerBytes(l int) int64 {
	if l < 0 || l >= len(st.ByLayer) {
		return 0
	}
	return st.ByLayer[l]
}

// viewer is one stream's receive side, without a socket or a clock:
// it accounts each data packet, feeds the optional playout model and
// returns the acknowledgement to send. now is seconds since the stream
// request. Without a receiver there is no playout model, no NACK and no
// repair accounting. What arrived is the receiver's per-layer interval
// sets; the viewer keeps nothing per packet. Not goroutine-safe.
type viewer struct {
	st      ClientStats
	lastSeq int64
	rx      *video.Receiver
}

func newViewer(rx *video.Receiver) viewer { return viewer{lastSeq: -1, rx: rx} }

// OnData accounts one data packet of size wire bytes and returns its
// acknowledgement, carrying a NACK when the playout model has an
// actionable base-layer hole. It allocates nothing once ByLayer has
// reached the highest layer.
func (v *viewer) OnData(now float64, h DataHeader, size int) Ack {
	st := &v.st
	layer, n := int(h.Layer), int64(size)
	reorder := h.Seq < v.lastSeq
	ack := Ack{AckSeq: h.Seq, EchoMicros: h.SendMicros, NackLayer: NoNack}
	if v.rx != nil {
		frontier := v.rx.FrontierOf(layer)
		added := v.rx.Deliver(now, layer, h.LayerOff, n)
		switch {
		case layer >= v.rx.Layers(): // the model drops it: neither
		case added == 0:
			st.Duplicates++
		case h.LayerOff < frontier && !reorder:
			st.Retransmits++
		}
		v.nack(now, n, &ack)
	}
	st.Packets++
	st.Bytes += n
	for len(st.ByLayer) <= layer {
		st.ByLayer = append(st.ByLayer, 0)
	}
	st.ByLayer[layer] += n
	st.HighestLayer = max(st.HighestLayer, layer)
	at := time.Duration(now * float64(time.Second))
	if st.Packets == 1 {
		st.FirstArrival = at
	}
	st.LastArrival = at
	if reorder {
		st.ReorderEvents++
	} else {
		v.lastSeq = h.Seq
	}
	return ack
}

// nack attaches the oldest actionable base-layer hole to ack. A hole is
// actionable once the stream frontier has moved at least two packets of
// pkt bytes past it (otherwise it is probably just reordering in flight).
func (v *viewer) nack(now float64, pkt int64, ack *Ack) {
	v.rx.Advance(now)
	start, end, ok := v.rx.FirstHole(0, v.rx.FrontierOf(0)-2*pkt)
	if !ok {
		return
	}
	ack.NackLayer = 0
	ack.NackOff = start
	ack.NackLen = uint32(min(end-start, 64<<10))
	v.st.NacksSent++
}

// Stats returns a snapshot, with the playout model advanced to now.
func (v *viewer) Stats(now float64) ClientStats {
	out := v.st
	out.ByLayer = append([]int64(nil), v.st.ByLayer...)
	if v.rx != nil {
		v.rx.Advance(now)
		out.Playback = v.rx.Stats()
	}
	return out
}

// rejoinEvery is how often stream re-sends its request until data
// arrives: a join may have been shed under load.
const rejoinEvery = 500 * time.Millisecond

// stream requests dur of streaming over conn, hands each data packet to
// onData with the seconds since start, and writes back the
// acknowledgement onData returns. It ends when ctx is done, after idle
// without data once data has arrived, or at dur + idle + 3 s, and
// reports whether any data arrived. buf is the initial read buffer; a
// datagram it truncates grows it to that packet's length (the packet
// itself is lost). Past the request, the loop allocates nothing.
func stream(ctx context.Context, conn *net.UDPConn, dur, idle time.Duration, start time.Time, buf []byte,
	onData func(now float64, h DataHeader, size int) Ack) (got bool, err error) {
	req := make([]byte, ReqLen)
	n, err := EncodeReq(req, Req{DurationMs: uint32(dur / time.Millisecond)})
	if err != nil {
		return false, err
	}
	if _, err := conn.Write(req[:n]); err != nil {
		return false, fmt.Errorf("netio: request: %w", err)
	}
	ackBuf := make([]byte, AckLen)
	deadline := start.Add(dur + idle + 3*time.Second)
	lastData, rejoin := start, start.Add(rejoinEvery)
	for t := time.Now(); t.Before(deadline); t = time.Now() {
		if err := ctx.Err(); err != nil {
			return got, err
		}
		if got && t.Sub(lastData) > idle {
			return true, nil // stream ended
		}
		if !got && t.After(rejoin) {
			conn.Write(req[:n])
			rejoin = t.Add(rejoinEvery)
		}
		conn.SetReadDeadline(t.Add(200 * time.Millisecond))
		nr, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return got, err
		}
		h, payload, err := DecodeData(buf[:nr])
		if err != nil {
			if need := DataHeaderLen + int(h.PayloadLen); errors.Is(err, ErrShortPacket) && nr == len(buf) && need > nr {
				buf = make([]byte, need)
			}
			continue
		}
		lastData, got = time.Now(), true
		ack := onData(lastData.Sub(start).Seconds(), h, len(payload)+DataHeaderLen)
		na, _ := EncodeAck(ackBuf, ack) // ackBuf holds AckLen
		if _, err := conn.Write(ackBuf[:na]); err != nil {
			return got, fmt.Errorf("netio: ack: %w", err)
		}
	}
	return got, nil
}

// dialUDP connects a UDP socket to addr (a server or an emulating pipe).
func dialUDP(addr string) (*net.UDPConn, error) {
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netio: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ra)
	if err != nil {
		return nil, fmt.Errorf("netio: dial %q: %w", addr, err)
	}
	return conn, nil
}
