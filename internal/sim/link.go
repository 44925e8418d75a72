package sim

import (
	"fmt"

	"qav/internal/metrics"
)

// Link models a store-and-forward output link fed by a Queue: packets are
// serialized at Rate bytes/s and then delayed by the propagation Delay
// before being handed to their destination Receiver.
type Link struct {
	eng   *Engine
	queue Queue
	rate  float64 // bytes per second
	delay float64 // propagation delay, seconds

	// freeAt is when the current serialization finishes; the link is
	// busy while Now() < freeAt. wake holds the pending "link free"
	// instant (at most one), armed only when a packet is actually
	// waiting, so an uncongested link costs one event per packet
	// instead of two.
	freeAt float64
	wake   *delayLine

	// out carries each transmitted packet to the far end: its
	// arrivals (serialization finish plus propagation) never decrease,
	// since freeAt does not.
	out *delayLine

	// fluidRate is the bandwidth currently reserved by a hybrid fluid
	// aggregate (SetFluidRate); packets serialize at the residual
	// rate - fluidRate. Zero outside hybrid runs, where the residual is
	// bit-identical to the full rate.
	fluidRate float64

	// TxBytes counts bytes successfully transmitted.
	TxBytes int64
	// TxPackets counts packets successfully transmitted.
	TxPackets int64

	// offered counts Offer calls (enqueue attempts); drops live on the
	// queue. Plain field: the engine is single-threaded.
	offered int64

	// delayHist, when instrumented, observes per-packet queueing delay
	// (enqueue to start of serialization). flowDelay optionally splits
	// the same observation per flow; both are created at registration
	// time so the record path only indexes. Single-writer local
	// histograms: the engine thread is the only writer, so each
	// observation is a plain array increment.
	delayHist *metrics.LocalHistogram
	flowDelay []*metrics.LocalHistogram
}

// NewLink creates a link draining q at rate bytes/s with propagation
// delay seconds.
func NewLink(eng *Engine, q Queue, rate, delay float64) *Link {
	if rate <= 0 {
		panic("sim: link rate must be positive")
	}
	if delay < 0 {
		panic("sim: link delay must be non-negative")
	}
	l := &Link{eng: eng, queue: q, rate: rate, delay: delay}
	l.wake = eng.newLine(l.txDone)
	l.out = eng.newLine(l.deliver)
	return l
}

// Rate returns the link bandwidth in bytes per second.
func (l *Link) Rate() float64 { return l.rate }

// MaxFluidShare caps the fraction of a link a fluid aggregate may
// reserve: the packet path always retains at least 2% of the capacity,
// so a background population that out-demands the link slows the
// foreground down arbitrarily far but can never wedge it (a reserved
// rate equal to the capacity would make serialization time infinite).
const MaxFluidShare = 0.98

// SetFluidRate reserves r bytes/s of the link for a fluid traffic
// aggregate; subsequent packet serializations run at the residual
// Rate() - r. Requests are clamped into [0, MaxFluidShare*Rate()] —
// never rejected — because the caller's reservation is a measurement
// (the aggregate's serviced bandwidth) that may legitimately approach
// the capacity when the background population dwarfs the packet
// foreground. Packets already being serialized keep their computed
// finish time; the new rate applies from the next dequeue.
func (l *Link) SetFluidRate(r float64) {
	if r < 0 {
		r = 0
	}
	if max := l.rate * MaxFluidShare; r > max {
		r = max
	}
	l.fluidRate = r
}

// FluidRate returns the currently reserved fluid bandwidth in bytes/s.
func (l *Link) FluidRate() float64 { return l.fluidRate }

// Delay returns the propagation delay in seconds.
func (l *Link) Delay() float64 { return l.delay }

// Instrument registers the link's transmit and queue statistics on reg
// and enables the aggregate queueing-delay histogram. Counters and byte
// gauges publish existing single-writer fields at snapshot time (see
// Engine.Instrument for the synchronization contract); the histogram is
// the only per-packet record added, one plain bucket increment per
// dequeue (a local histogram — the engine thread is its sole writer).
func (l *Link) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("link.tx.packets", func() int64 { return l.TxPackets })
	reg.CounterFunc("link.tx.bytes", func() int64 { return l.TxBytes })
	reg.CounterFunc("queue.offered", func() int64 { return l.offered })
	reg.CounterFunc("queue.dropped", func() int64 { return l.queue.Drops() })
	reg.GaugeFunc("queue.bytes", func() float64 { return float64(l.queue.Bytes()) })
	reg.GaugeFunc("queue.len", func() float64 { return float64(l.queue.Len()) })
	l.delayHist = reg.LocalHistogram("queue.delay", metrics.HistogramOpts{})
}

// InstrumentFlows additionally splits the queueing-delay histogram per
// flow for FlowIDs in [0, n): packets of flow f observe into
// "queue.delay.f<f>" alongside the aggregate histogram. Call it at
// construction time, after the flow count is known.
func (l *Link) InstrumentFlows(reg *metrics.Registry, n int) {
	l.flowDelay = make([]*metrics.LocalHistogram, n)
	for f := 0; f < n; f++ {
		l.flowDelay[f] = reg.LocalHistogram(fmt.Sprintf("queue.delay.f%d", f), metrics.HistogramOpts{})
	}
}

// Offer enqueues p and starts transmission if the link is idle. A
// packet the queue drops is released back to the engine's pool.
func (l *Link) Offer(p *Packet) {
	l.offered++
	if !l.queue.Enqueue(p) {
		l.eng.pool.Put(p)
		return
	}
	now := l.eng.now
	p.enqAt = now
	if l.wake.q.n > 0 {
		// A link-free event is already armed (and may be due in this
		// very instant): it owns the next dequeue. Transmitting here too
		// would overlap serializations.
		return
	}
	if now >= l.freeAt {
		l.transmitNext()
	} else {
		// Busy, and nothing will revisit the queue when serialization
		// ends: arm the link-free event now.
		l.wake.push(l.freeAt, now, nil)
	}
}

func (l *Link) transmitNext() {
	p := l.queue.Dequeue()
	if p == nil {
		return
	}
	now := l.eng.now
	txTime := float64(p.Size) / (l.rate - l.fluidRate)
	l.TxBytes += int64(p.Size)
	l.TxPackets++
	if l.delayHist != nil {
		d := now - p.enqAt
		l.delayHist.Observe(d)
		if uint(p.FlowID) < uint(len(l.flowDelay)) {
			l.flowDelay[p.FlowID].Observe(d)
		}
	}
	// The link is free to start the next packet as soon as serialization
	// finishes; delivery lands after serialization + propagation. Both
	// instants are known now, so the delivery is sent down its line
	// directly instead of chaining a second event off the serialization
	// one — and there is no second event at all when the queue is empty
	// (the next Offer restarts the link).
	l.freeAt = now + txTime
	if l.queue.Len() > 0 {
		l.wake.push(l.freeAt, now, nil)
	}
	l.out.push(l.freeAt+l.delay, now, p)
}

// txDone fires when serialization finishes: the link may start the next
// queued packet.
func (l *Link) txDone(*Packet) { l.transmitNext() }

// deliver hands the packet to its destination and releases it. The
// receiver borrows the packet only for the duration of Recv (see
// PacketPool).
func (l *Link) deliver(p *Packet) {
	if p.Dst != nil {
		p.Dst.Recv(p)
	}
	l.eng.pool.Put(p)
}
