package sim

import (
	"fmt"

	"qav/internal/metrics"
)

// This file implements the hybrid fluid/packet model (DESIGN.md,
// "Hybrid fluid/packet simulation"): large background populations are
// simulated as aggregate AIMD rate processes — a handful of float
// updates per coupling step — while the configured foreground flows
// stay packet-level and exact. The two halves are coupled at the
// bottleneck in both directions:
//
//   - fluid -> packets: the aggregate's serviced bandwidth is reserved
//     on the link (Link.SetFluidRate), so foreground packets serialize
//     at the residual rate, and its backlog occupies part of the shared
//     buffer (FluidQueue), so foreground arrivals are dropped when the
//     background has filled the queue — exactly the two ways a real
//     background population displaces a foreground flow.
//
//   - packets -> fluid: the aggregate's available bandwidth is the
//     capacity left over by the foreground's measured arrival rate
//     (bytes offered to the shared buffer, admitted or not). Below
//     saturation that is simply the leftover; past saturation the
//     packet share shrinks to its FIFO proportion — a saturated FIFO
//     serves each side in proportion to its arrivals — so an
//     over-demanding background slows the foreground to its fair
//     share but can never starve it (the offered measure, unlike the
//     transmitted one, does not collapse when the foreground is
//     squeezed). The buffer splits the same way: the aggregate may
//     occupy at most its bandwidth share of the queue, and its
//     overflow drops are its congestion signal.
//
// The model is deliberately deterministic — no randomness, every update
// driven by the engine's virtual clock — so hybrid runs are exactly
// reproducible.

// FluidClassConfig describes one aggregate AIMD class: Flows congestion
// controlled flows (TCP or RAP — both are AIMD at this altitude)
// modeled as a single rate process.
type FluidClassConfig struct {
	Name       string  // label for reports ("tcp", "rap")
	Flows      int     // modeled population, > 0
	PacketSize int     // bytes; the additive-increase quantum
	RTT        float64 // zero-queue round-trip time, seconds
	// InitialRate is the aggregate starting rate in bytes/s (default:
	// the class floor of one packet per RTT per flow).
	InitialRate float64
}

// FluidConfig configures a Fluid aggregate.
type FluidConfig struct {
	Classes []FluidClassConfig
}

const (
	// fluidInterval is the fluid<->packet coupling step in seconds. Each
	// step exchanges one round of measurements between the aggregate and
	// the bottleneck.
	fluidInterval float64 = 0.01
	// fluidBeta is the multiplicative decrease applied to a flow that
	// sees loss: the TCP/RAP halving.
	fluidBeta float64 = 0.5
)

// fluidClass is one class's live state.
type fluidClass struct {
	cfg  FluidClassConfig
	rate float64 // current aggregate send rate, bytes/s
	// holdUntil fences AIMD epochs: after a backoff neither a second
	// decrease nor additive increase applies until one (queue-inflated)
	// RTT has passed, mirroring a real AIMD sender's once-per-RTT
	// reaction.
	holdUntil float64
}

// Fluid is an aggregate AIMD background-traffic model attached to a
// bottleneck link and its (FluidQueue-wrapped) buffer. Construct with
// NewFluid, then Start before the engine runs. All state is owned by
// the link's engine: reads from other goroutines are only safe after
// the run (the same access rules as the link itself).
type Fluid struct {
	eng     *Engine
	link    *Link
	q       *FluidQueue
	classes []fluidClass

	backlog     float64 // fluid bytes queued at the bottleneck
	srvRate     float64 // EWMA of serviced fluid bandwidth, the link reservation
	lastOffered int64   // shared queue's offered packet bytes at the previous step
	lastAt      float64 // previous step's instant

	stepFn func()

	// Cumulative totals, single-writer (the engine thread); read them
	// after the run.
	OfferedBytes float64
	ServedBytes  float64
	DroppedBytes float64
	Backoffs     int64
}

// NewFluid builds a fluid aggregate on eng, coupled to link and the
// shared buffer q. Invalid classes panic (construction-time errors,
// like the rest of the sim package).
func NewFluid(eng *Engine, link *Link, q *FluidQueue, cfg FluidConfig) *Fluid {
	if len(cfg.Classes) == 0 {
		panic("sim: fluid aggregate needs at least one class")
	}
	f := &Fluid{
		eng:     eng,
		link:    link,
		q:       q,
		classes: make([]fluidClass, len(cfg.Classes)),
	}
	for i, c := range cfg.Classes {
		if c.Flows <= 0 {
			panic(fmt.Sprintf("sim: fluid class %q needs a positive population, got %d", c.Name, c.Flows))
		}
		if c.PacketSize <= 0 {
			panic(fmt.Sprintf("sim: fluid class %q needs a positive packet size, got %d", c.Name, c.PacketSize))
		}
		if c.RTT <= 0 {
			panic(fmt.Sprintf("sim: fluid class %q needs a positive RTT, got %v", c.Name, c.RTT))
		}
		rate := c.InitialRate
		if floor := float64(c.Flows) * float64(c.PacketSize) / c.RTT; rate < floor {
			rate = floor
		}
		f.classes[i] = fluidClass{cfg: c, rate: rate}
	}
	f.stepFn = f.step
	return f
}

// Start schedules the coupling steps. The first step lands at 0.73 of
// an interval — an off-grid phase, so step instants never coincide with
// the millisecond-aligned flow starts or the sampler's ticks. A shared
// instant would be harmless dynamically but would make same-time event
// order part of the model.
func (f *Fluid) Start() {
	f.eng.At(0.73*fluidInterval, f.stepFn)
}

// Rate returns the aggregate's current total send rate in bytes/s.
func (f *Fluid) Rate() float64 {
	r := 0.0
	for i := range f.classes {
		r += f.classes[i].rate
	}
	return r
}

// Backlog returns the fluid bytes currently queued at the bottleneck.
func (f *Fluid) Backlog() float64 { return f.backlog }

// Flows returns the total modeled background population.
func (f *Fluid) Flows() int {
	n := 0
	for i := range f.classes {
		n += f.classes[i].cfg.Flows
	}
	return n
}

// ClassRate returns the named class's current rate, or 0.
func (f *Fluid) ClassRate(name string) float64 {
	for i := range f.classes {
		if f.classes[i].cfg.Name == name {
			return f.classes[i].rate
		}
	}
	return 0
}

// Instrument registers the aggregate's counters and gauges on reg under
// "fluid.*". Hybrid runs only — the names never appear in pure
// packet-level reports.
func (f *Fluid) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("fluid.offered.bytes", func() int64 { return int64(f.OfferedBytes) })
	reg.CounterFunc("fluid.served.bytes", func() int64 { return int64(f.ServedBytes) })
	reg.CounterFunc("fluid.dropped.bytes", func() int64 { return int64(f.DroppedBytes) })
	reg.CounterFunc("fluid.backoffs", func() int64 { return f.Backoffs })
	reg.GaugeFunc("fluid.rate", f.Rate)
	reg.GaugeFunc("fluid.backlog", func() float64 { return f.backlog })
	reg.GaugeFunc("fluid.reserved", f.link.FluidRate)
}

// step runs one coupling round; see the file comment for the model.
func (f *Fluid) step() {
	now := f.eng.Now()
	dt := now - f.lastAt
	f.lastAt = now
	capacity := f.link.Rate()

	// Measured foreground demand over the last step: bytes offered to
	// the shared buffer, admitted or not. Offered — not transmitted —
	// is the FIFO share basis; a throughput measure would collapse
	// together with the foreground it is supposed to protect.
	po := f.q.offeredPktBytes
	pktOffered := float64(po-f.lastOffered) / dt
	f.lastOffered = po

	// Aggregate arrivals this step.
	demand := 0.0
	for i := range f.classes {
		demand += f.classes[i].rate
	}
	arrivals := demand * dt
	f.OfferedBytes += arrivals

	// An early-dropping discipline (RED) thins the aggregate's arrivals
	// at its current drop probability — the same congestion signal the
	// packet flows receive — before anything reaches the buffer. The
	// expected-value thinning is deterministic; the discipline's own
	// randomness stays on the packet path.
	early := 0.0
	if f.q.earlyProb != nil {
		early = arrivals * f.q.earlyProb()
	}
	inflow := arrivals - early

	// Service: below saturation the aggregate gets the capacity the
	// packets leave over; past it, each side's share is proportional to
	// its arrival rate — how a saturated FIFO actually divides a link —
	// and the aggregate never takes more than MaxFluidShare.
	pktTarget := pktOffered
	if total := pktOffered + demand; total > capacity {
		pktTarget = capacity * pktOffered / total
	}
	avail := capacity - pktTarget
	if lim := capacity * MaxFluidShare; avail > lim {
		avail = lim
	}
	served := f.backlog + inflow
	if lim := avail * dt; served > lim {
		served = lim
	}
	f.backlog += inflow - served
	f.ServedBytes += served

	// Shared-buffer overflow is the congestion signal. The buffer
	// splits like the bandwidth: the aggregate may use what the packet
	// queue does not occupy, capped at its bandwidth share of the
	// budget — without the cap a saturating background clamps its
	// backlog to exactly the free space every step and locks the
	// foreground out of the queue entirely.
	room := f.q.fluidRoom()
	if lim := float64(f.q.limit) * avail / capacity; room > lim {
		room = lim
	}
	dropped := early
	if f.backlog > room {
		dropped += f.backlog - room
		f.backlog = room
	}
	f.DroppedBytes += dropped
	lossRatio := 0.0
	if arrivals > 0 {
		lossRatio = dropped / arrivals
	}

	// Queueing delay inflates every class's RTT, exactly as it slows a
	// real AIMD sender's feedback loop.
	qdelay := (f.backlog + float64(f.q.PacketBytes())) / capacity

	for i := range f.classes {
		c := &f.classes[i]
		rtt := c.cfg.RTT + qdelay
		switch {
		case dropped > 0 && now >= c.holdUntil:
			// Multiplicative decrease, population-smoothed: each flow
			// that saw a drop this RTT halves (fluidBeta), and the expected
			// fraction hit is the per-flow expected drop count — loss
			// ratio times the packets a flow sends in one RTT. A
			// desynchronized aggregate of many flows therefore decays
			// smoothly instead of halving in lockstep.
			perFlowPkts := c.rate * rtt / (float64(c.cfg.Flows) * float64(c.cfg.PacketSize))
			frac := lossRatio * perFlowPkts
			if frac > 1 {
				frac = 1
			}
			c.rate *= 1 - fluidBeta*frac
			c.holdUntil = now + rtt
			f.Backoffs++
		case dropped == 0 && now >= c.holdUntil:
			// Additive increase: one packet per RTT per flow.
			c.rate += float64(c.cfg.Flows) * float64(c.cfg.PacketSize) / rtt * dt
		}
		// A real AIMD window never shrinks below one packet, and a
		// loss-bound flow keeps retransmitting it: the aggregate's send
		// rate floors at one packet per RTT per flow. The floor's RTT
		// is the base plus *half* the current queueing delay — over a
		// backoff-and-drain cycle the queue a retransmitting flow sees
		// averages about half the instantaneous one. The distinction
		// only matters in the sub-packet regime (per-flow share below
		// one packet per RTT), where packet-level fleets measurably
		// keep offering ~2x the link at ~45% loss: flooring on the
		// fully inflated RTT understates that pressure (a packet
		// foreground then claims a multiple of its fair share), while
		// flooring on the bare base RTT overstates it.
		floorRTT := c.cfg.RTT + 0.5*qdelay
		if floor := float64(c.cfg.Flows) * float64(c.cfg.PacketSize) / floorRTT; c.rate < floor {
			c.rate = floor
		}
	}

	// Couple back: reserve the serviced bandwidth on the link (EWMA to
	// damp the measure-then-reserve loop) and publish the backlog to
	// the shared buffer.
	f.srvRate += 0.5 * (served/dt - f.srvRate)
	f.link.SetFluidRate(f.srvRate)
	f.q.SetFluidBytes(f.backlog)

	f.eng.At(now+fluidInterval, f.stepFn)
}

// FluidQueue couples a fluid aggregate's backlog into a packet queue's
// byte budget: the wrapped queue and the aggregate share one buffer of
// limit bytes, each may use what the other does not, and both count
// their own overflow as drops. Bytes reports the total occupancy —
// fluid plus packets — so queue traces and RED-style observers see the
// buffer a real mixed population would produce. The inner queue keeps
// its own drop policy (DropTail or RED) for the packet traffic.
type FluidQueue struct {
	inner      Queue
	limit      int
	fluidBytes float64
	drops      int64 // packet drops due to fluid occupancy

	// offeredPktBytes accumulates every Enqueue attempt's size, admitted
	// or not: the foreground arrival measure Fluid.step divides the
	// link by.
	offeredPktBytes int64

	// earlyProb, when the inner discipline drops early (RED), reports
	// its current drop probability so Fluid.step can thin the
	// aggregate's arrivals at the same rate.
	earlyProb func() float64
}

// earlyDropQueue is the optional discipline interface a FluidQueue
// couples to: RED implements it. SetAuxBytes folds the fluid backlog
// into the discipline's averaged occupancy; EarlyDropProb exposes the
// congestion signal back to the aggregate.
type earlyDropQueue interface {
	SetAuxBytes(func() float64)
	EarlyDropProb() float64
}

// NewFluidQueue wraps inner with a shared byte budget of limit.
func NewFluidQueue(inner Queue, limit int) *FluidQueue {
	if limit <= 0 {
		panic("sim: FluidQueue limit must be positive")
	}
	q := &FluidQueue{inner: inner, limit: limit}
	if ed, ok := inner.(earlyDropQueue); ok {
		ed.SetAuxBytes(q.FluidBytes)
		q.earlyProb = ed.EarlyDropProb
	}
	return q
}

// SetFluidBytes publishes the aggregate's current backlog; called by
// Fluid at each coupling step.
func (q *FluidQueue) SetFluidBytes(b float64) {
	if b < 0 {
		b = 0
	}
	q.fluidBytes = b
}

// FluidBytes returns the published fluid backlog.
func (q *FluidQueue) FluidBytes() float64 { return q.fluidBytes }

// PacketBytes returns the packet-only occupancy (the inner queue's).
func (q *FluidQueue) PacketBytes() int { return q.inner.Bytes() }

// fluidRoom is the buffer space the packet queue leaves for the fluid.
func (q *FluidQueue) fluidRoom() float64 {
	room := float64(q.limit - q.inner.Bytes())
	if room < 0 {
		room = 0
	}
	return room
}

// Enqueue implements Queue: a packet is admitted only if it fits next
// to the fluid backlog in the shared budget, then subjected to the
// inner queue's own policy.
func (q *FluidQueue) Enqueue(p *Packet) bool {
	q.offeredPktBytes += int64(p.Size)
	if float64(q.inner.Bytes()+p.Size)+q.fluidBytes > float64(q.limit) {
		q.drops++
		return false
	}
	return q.inner.Enqueue(p)
}

// Dequeue implements Queue.
func (q *FluidQueue) Dequeue() *Packet { return q.inner.Dequeue() }

// Len implements Queue (packets only; the fluid has no packet count).
func (q *FluidQueue) Len() int { return q.inner.Len() }

// Bytes implements Queue: total shared-buffer occupancy.
func (q *FluidQueue) Bytes() int { return q.inner.Bytes() + int(q.fluidBytes) }

// Drops implements Queue: the inner policy's drops plus the packets
// refused for fluid occupancy.
func (q *FluidQueue) Drops() int64 { return q.inner.Drops() + q.drops }
