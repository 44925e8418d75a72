package netio

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qav/internal/video"
)

// refViewer is the client's per-packet path as it was before the viewer:
// the record and fillNack of the socket-owning client, with its clock
// passed in, and a never-pruned map of delivered (layer, offset) pairs
// for retransmit detection. It counts every second arrival at an
// offset as a retransmit, which is what the viewer calls a duplicate.
type refViewer struct {
	stats   ClientStats
	lastSeq int64
	rx      *video.Receiver
	pktSize int64
	seen    map[refSeenKey]bool
}

type refSeenKey struct {
	layer int
	off   int64
}

func newRefViewer(rx *video.Receiver) *refViewer {
	return &refViewer{lastSeq: -1, rx: rx, seen: make(map[refSeenKey]bool)}
}

func (c *refViewer) onData(now float64, h DataHeader, size int) Ack {
	c.record(now, h, size)
	ack := Ack{AckSeq: h.Seq, EchoMicros: h.SendMicros, NackLayer: NoNack}
	if c.rx != nil {
		c.fillNack(now, &ack)
	}
	return ack
}

func (c *refViewer) record(now float64, h DataHeader, size int) {
	st := &c.stats
	if c.rx != nil {
		key := refSeenKey{layer: int(h.Layer), off: h.LayerOff}
		if c.seen[key] {
			st.Retransmits++
		} else {
			c.seen[key] = true
		}
		c.pktSize = int64(size)
		c.rx.Deliver(now, int(h.Layer), h.LayerOff, int64(size))
	}
	st.Packets++
	st.Bytes += int64(size)
	for len(st.ByLayer) <= int(h.Layer) {
		st.ByLayer = append(st.ByLayer, 0)
	}
	st.ByLayer[h.Layer] += int64(size)
	if int(h.Layer) > st.HighestLayer {
		st.HighestLayer = int(h.Layer)
	}
	if st.Packets == 1 {
		st.FirstArrival = time.Duration(now * float64(time.Second))
	}
	st.LastArrival = time.Duration(now * float64(time.Second))
	if h.Seq < c.lastSeq {
		st.ReorderEvents++
	} else {
		c.lastSeq = h.Seq
	}
}

func (c *refViewer) fillNack(now float64, ack *Ack) {
	c.rx.Advance(now)
	frontier := c.rx.FrontierOf(0)
	margin := 2 * c.pktSize
	if margin <= 0 {
		margin = 1024
	}
	start, end, ok := c.rx.FirstHole(0, frontier-margin)
	if !ok {
		return
	}
	if end-start > 64<<10 {
		end = start + 64<<10
	}
	ack.NackLayer = 0
	ack.NackOff = start
	ack.NackLen = uint32(end - start)
	c.stats.NacksSent++
}

func (c *refViewer) Stats(now float64) ClientStats {
	out := c.stats
	out.ByLayer = make([]int64, len(c.stats.ByLayer))
	copy(out.ByLayer, c.stats.ByLayer)
	if c.rx != nil {
		c.rx.Advance(now)
		out.Playback = c.rx.Stats()
	}
	return out
}

// arrival is one datagram as the viewer sees it.
type arrival struct {
	now  float64
	h    DataHeader
	size int
}

// viewerTrace is a seeded arrival sequence cut the way the server cuts
// a stream: fixed-size packets at aligned per-layer offsets on layers
// below maxLayers, a new sequence number per send. The path loses
// packets in bursts, duplicates some (at once or late), and holds some
// back behind later ones. Every lost base-layer packet is sent again a
// few sends later as a repair — a new sequence number at the lost
// offset — once a later base-layer packet has arrived, so the hole lies
// behind the frontier; a lost repair is sent again. Repairs are never
// held back. repairs counts the ones that arrived (first copies only).
func viewerTrace(seed int64, pkt, layers, sends int) (trace []arrival, repairs int) {
	rng := rand.New(rand.NewSource(seed))
	var (
		seq      int64
		now      float64
		sent     = make([]int64, layers)
		frontier int64 // end of the highest base-layer packet delivered
		burst    bool
		held     []arrival // delivered after later packets
		lost     []int64   // base-layer offsets awaiting a repair
		due      []int     // send count at which each lost offset is repaired
	)
	lossP, burstP := 0.01+0.05*rng.Float64(), 0.3+0.5*rng.Float64()
	dupP, holdP := 0.04*rng.Float64(), 0.08*rng.Float64()
	deliver := func(a arrival) {
		trace = append(trace, a)
		if a.h.Layer == 0 {
			frontier = max(frontier, a.h.LayerOff+int64(pkt))
		}
	}
	for i := 0; i < sends; i++ {
		now += (0.5 + rng.Float64()) * 0.004
		h := DataHeader{Seq: seq, SendMicros: uint64(now * 1e6), PayloadLen: uint16(pkt - DataHeaderLen)}
		seq++
		repair := len(lost) > 0 && i >= due[0] && lost[0] < frontier
		if repair {
			h.Layer, h.LayerOff = 0, lost[0]
			lost, due = lost[1:], due[1:]
		} else {
			// The base layer takes about half the sends.
			if l := rng.Intn(2 * layers); l < layers {
				h.Layer = uint8(l)
			}
			h.LayerOff = sent[h.Layer]
			sent[h.Layer] += int64(pkt)
		}
		// Held packets due now arrive before this one.
		for len(held) > 0 && held[0].now <= now {
			deliver(held[0])
			held = held[1:]
		}
		p := lossP
		if burst {
			p = burstP
		}
		if burst = rng.Float64() < p; burst {
			if h.Layer == 0 {
				lost = append(lost, h.LayerOff)
				due = append(due, i+2+rng.Intn(6))
			}
			continue
		}
		a := arrival{now: now, h: h, size: pkt}
		if !repair && rng.Float64() < holdP {
			a.now = now + 0.004*float64(1+rng.Intn(5))
			held = append(held, a)
		} else {
			deliver(a)
			if repair {
				repairs++
			}
		}
		if rng.Float64() < dupP {
			d := a
			if rng.Intn(2) == 0 {
				d.now = a.now + 0.004*float64(1+rng.Intn(8))
				held = append(held, d)
			} else {
				deliver(d)
			}
		}
		// Keep held arrivals in time order.
		for k := len(held) - 1; k > 0 && held[k].now < held[k-1].now; k-- {
			held[k], held[k-1] = held[k-1], held[k]
		}
	}
	for _, a := range held {
		deliver(a)
	}
	return trace, repairs
}

// TestViewerDifferential feeds seeded traces to the viewer and to the
// reference, each with and without the playout model: every ACK's bytes
// and every stats field must match, except that the reference's
// retransmits are the viewer's duplicates, and the viewer's retransmits
// are exactly the repairs that arrived.
func TestViewerDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 50
	}
	vcfg := video.Config{C: 20_000, MaxLayers: 6, StartupBytes: 4096}
	var total ClientStats
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		pkt := []int{200, 512, 1400}[rng.Intn(3)]
		layers := 1 + rng.Intn(vcfg.MaxLayers)
		trace, repairs := viewerTrace(seed, pkt, layers, 1500)
		for _, playout := range []bool{false, true} {
			var vrx, rrx *video.Receiver
			if playout {
				vrx, _ = video.NewReceiver(vcfg)
				rrx, _ = video.NewReceiver(vcfg)
			}
			v, ref := newViewer(vrx), newRefViewer(rrx)
			vb, rb := make([]byte, AckLen), make([]byte, AckLen)
			for i, a := range trace {
				EncodeAck(vb, v.OnData(a.now, a.h, a.size))
				EncodeAck(rb, ref.onData(a.now, a.h, a.size))
				if !bytes.Equal(vb, rb) {
					t.Fatalf("seed %d playout %v arrival %d (%+v): ack %x, reference %x", seed, playout, i, a.h, vb, rb)
				}
				if i%97 == 0 || i == len(trace)-1 {
					at := a.now + 0.01
					checkViewerStats(t, v.Stats(at), ref.Stats(at), seed, playout, i)
				}
			}
			st := v.Stats(0)
			if want := int64(repairs); playout && st.Retransmits != want || !playout && st.Retransmits != 0 {
				t.Fatalf("seed %d playout %v: viewer counted %d repairs, trace delivered %d", seed, playout, st.Retransmits, repairs)
			}
			if playout {
				total.Retransmits += st.Retransmits
				total.Duplicates += st.Duplicates
				total.ReorderEvents += st.ReorderEvents
				total.NacksSent += st.NacksSent
			}
		}
	}
	t.Logf("%d seeds: %d repairs, %d duplicates, %d reorders, %d NACKs", seeds, total.Retransmits, total.Duplicates, total.ReorderEvents, total.NacksSent)
	if total.Retransmits == 0 || total.Duplicates == 0 || total.ReorderEvents == 0 || total.NacksSent == 0 {
		t.Fatal("the traces exercise too little")
	}
}

func checkViewerStats(t *testing.T, got, ref ClientStats, seed int64, playout bool, i int) {
	t.Helper()
	want := ref
	want.Retransmits, want.Duplicates = got.Retransmits, ref.Retransmits
	if len(want.ByLayer) == 0 && len(got.ByLayer) == 0 {
		want.ByLayer = got.ByLayer
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d playout %v after arrival %d:\nviewer    %+v\nreference %+v", seed, playout, i, got, want)
	}
}

// TestViewerLayersBeyondModel: a layer the playout model does not decode
// counts in the totals and per layer, and never as a duplicate or a
// repair, however often and wherever it arrives.
func TestViewerLayersBeyondModel(t *testing.T) {
	rx, err := video.NewReceiver(video.Config{C: 10_000, MaxLayers: 4, StartupBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	v := newViewer(rx)
	const pkt = 512
	var seq int64
	send := func(layer uint8, off int64) {
		v.OnData(float64(seq)*0.01, DataHeader{Seq: seq, Layer: layer, LayerOff: off}, pkt)
		seq++
	}
	for i := int64(0); i < 8; i++ {
		send(0, i*pkt)
		send(4, i*pkt)
		send(200, i*pkt)
	}
	send(4, 0)       // again, and behind its layer's frontier
	send(200, 3*pkt) // again
	send(4, 100*pkt) // far ahead, then the hole behind it
	send(4, 50*pkt)
	st := v.Stats(1)
	if st.Packets != 28 || st.Bytes != 28*pkt {
		t.Fatalf("packets %d bytes %d, want 28 and %d", st.Packets, st.Bytes, 28*pkt)
	}
	if st.LayerBytes(0) != 8*pkt || st.LayerBytes(4) != 11*pkt || st.LayerBytes(200) != 9*pkt || st.HighestLayer != 200 {
		t.Fatalf("per layer %d/%d/%d, highest %d", st.LayerBytes(0), st.LayerBytes(4), st.LayerBytes(200), st.HighestLayer)
	}
	if st.Duplicates != 0 || st.Retransmits != 0 {
		t.Fatalf("layers past the model: %d duplicates, %d repairs; want 0 and 0", st.Duplicates, st.Retransmits)
	}
}
