// Package delay implements a delay-based (GCC-style) congestion
// controller behind the transport.Transport interface. Instead of
// probing until packets drop, it Kalman-filters the gradient of the
// round-trip time — queue growth shows up as a positive gradient long
// before the queue overflows — and backs off multiplicatively when an
// adaptive-threshold detector declares sustained overuse. The result is
// a controller that keeps the bottleneck queue short and (in the A/B
// sweeps) trades a little throughput for far fewer losses than RAP.
//
// The lineage is the WebRTC Google Congestion Control arrival-time
// filter (Kalman gradient estimate, adaptive γ, 0.85× decrease toward
// the measured delivered rate); see PAPERS.md. The controller here
// works on RTT rather than one-way-delay gradients — the simulator's
// ACK path is symmetric, so the RTT gradient carries the same queue
// signal without needing receiver timestamps.
package delay

import (
	"qav/internal/metrics"
	"qav/internal/transport"
)

// Config parameterizes the delay controller. Its filter and detector
// tuning (kalman.go, detector.go) are constants, set on the repo's
// dumbbell scenarios.
type Config struct {
	// Base is the shared bookkeeping configuration (packet size, rate
	// cap, initial RTT).
	Base transport.BaseConfig
}

// beta is the multiplicative decrease applied on overuse, toward the
// measured delivered rate.
const beta float64 = 0.85

// Controller is the delay-based transport. Not goroutine-safe; one flow
// owns one Controller.
type Controller struct {
	transport.Base

	filter   kalman
	detect   detector
	lastRTT  float64
	lastAckT float64
	haveRTT  bool

	// delivered is an EWMA of the ACK-clocked delivery rate, bytes/s —
	// the floor the multiplicative decrease aims beta× below.
	delivered float64

	underuse bool
	overuses int64

	overuseCtr *metrics.Counter
}

var _ transport.Transport = (*Controller)(nil)

// New returns a delay controller (zero cfg.Base fields take defaults).
func New(cfg Config) *Controller {
	cfg.Base.SetDefaults()
	return &Controller{
		Base:      transport.NewBase(cfg.Base),
		filter:    newKalman(),
		detect:    newDetector(),
		lastAckT:  -1,
		delivered: cfg.Base.InitialRate,
	}
}

// Kind returns transport.KindDelay.
func (c *Controller) Kind() transport.Kind { return transport.KindDelay }

// Gradient returns the current filtered RTT-gradient estimate, s/s
// (diagnostics and tests).
func (c *Controller) Gradient() float64 { return c.filter.m }

// Threshold returns the detector's current adaptive threshold γ, s/s.
func (c *Controller) Threshold() float64 { return c.detect.gamma }

// Overuses returns how many overuse backoffs the controller performed.
func (c *Controller) Overuses() int64 { return c.overuses }

// OnAck processes an acknowledgement: the RTT sample feeds the gradient
// filter and overuse detector, and a sustained-overuse verdict (or a
// reorder-inferred loss) triggers the multiplicative decrease. The
// returned Backoff has empty LostSeqs for pure overuse events — the
// controller's whole point is backing off before anything is lost.
func (c *Controller) OnAck(now float64, seq int64) *transport.Backoff {
	rtt, ok := c.AckRTT(now, seq)
	var sig signal
	if ok {
		if c.haveRTT && now > c.lastAckT {
			dt := now - c.lastAckT
			m := c.filter.update((rtt - c.lastRTT) / dt)
			sig = c.detect.update(now, dt, m)
			// ACK-clocked delivery rate: one packet per ACK gap.
			inst := float64(c.PacketSize()) / dt
			c.delivered = 0.9*c.delivered + 0.1*inst
		}
		c.lastRTT = rtt
		c.lastAckT = now
		c.haveRTT = true
	}
	if lost := c.ReorderLosses(); len(lost) > 0 {
		c.underuse = false
		return c.Backoff(now, c.Rate()/2, lost)
	}
	switch sig {
	case sigOveruse:
		c.underuse = false
		target := c.delivered
		if r := c.Rate(); r < target {
			target = r
		}
		if b := c.Backoff(now, beta*target, nil); b != nil {
			c.overuses++
			if c.overuseCtr != nil {
				c.overuseCtr.Inc()
			}
			return b
		}
	case sigUnderuse:
		c.underuse = true
	default:
		c.underuse = false
	}
	return nil
}

// Step runs the periodic decision: timeout losses back off by half;
// otherwise the rate climbs additively (one packet per SRTT) unless the
// detector last saw underuse, in which case it holds while the queue
// drains.
func (c *Controller) Step(now float64) *transport.Backoff {
	if lost := c.TimeoutLosses(now); len(lost) > 0 {
		c.underuse = false
		return c.Backoff(now, c.Rate()/2, lost)
	}
	if !c.underuse {
		c.SetRate(c.Rate() + float64(c.PacketSize())/c.SRTT())
	}
	return nil
}

// ConservativeSlope returns the pessimistic increase-slope estimate:
// one packet per peak-RTT, per peak-RTT (same form as RAP's — the
// additive-increase term is identical).
func (c *Controller) ConservativeSlope() float64 {
	prtt := c.PeakRTT()
	return float64(c.PacketSize()) / (prtt * prtt)
}

// Instrument publishes the shared transport instruments plus the
// backend-specific "<prefix>.overuse" counter.
func (c *Controller) Instrument(reg *metrics.Registry, prefix string, ins *transport.Instruments) {
	c.Base.Instrument(reg, prefix, ins)
	c.overuseCtr = reg.Counter(prefix + ".overuse")
}
