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

// Config parameterizes the delay controller. Zero fields take defaults
// tuned on the repo's dumbbell scenarios.
type Config struct {
	// Base is the shared bookkeeping configuration (packet size, rate
	// cap, initial RTT).
	Base transport.BaseConfig
	// ProcessNoise is the Kalman process-noise variance added per
	// sample (default 1e-4); larger tracks gradient changes faster.
	ProcessNoise float64
	// NoiseInit seeds the measurement-noise variance (default 0.01).
	NoiseInit float64
	// NoiseChi is the EWMA factor for the online residual-variance
	// estimate, in (0,1) (default 0.9).
	NoiseChi float64
	// Gamma0 is the initial overuse threshold in s/s (default 0.01).
	Gamma0 float64
	// GammaMin/GammaMax clamp the adaptive threshold
	// (defaults 0.002 / 0.3).
	GammaMin float64
	GammaMax float64
	// KUp is the threshold adaptation rate when |m| exceeds γ, 1/s
	// (default 8; fast chase prevents starvation next to loss-based
	// flows).
	KUp float64
	// KDown is the adaptation rate when |m| is below γ, 1/s
	// (default 0.2).
	KDown float64
	// OveruseTime is how long the gradient must stay over threshold
	// before overuse is declared, seconds (default 0.01).
	OveruseTime float64
	// Beta is the multiplicative decrease applied on overuse, toward
	// the measured delivered rate (default 0.85).
	Beta float64
}

func (c *Config) setDefaults() {
	c.Base.SetDefaults()
	if c.ProcessNoise <= 0 {
		c.ProcessNoise = 1e-4
	}
	if c.NoiseInit <= 0 {
		c.NoiseInit = 0.01
	}
	if c.NoiseChi <= 0 || c.NoiseChi >= 1 {
		c.NoiseChi = 0.9
	}
	if c.Gamma0 <= 0 {
		c.Gamma0 = 0.01
	}
	if c.GammaMin <= 0 {
		c.GammaMin = 0.002
	}
	if c.GammaMax <= 0 {
		c.GammaMax = 0.3
	}
	if c.KUp <= 0 {
		c.KUp = 8
	}
	if c.KDown <= 0 {
		c.KDown = 0.2
	}
	if c.OveruseTime <= 0 {
		c.OveruseTime = 0.01
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		c.Beta = 0.85
	}
}

// Controller is the delay-based transport. Not goroutine-safe; one flow
// owns one Controller.
type Controller struct {
	transport.Base
	cfg Config

	filter   kalman
	detect   detector
	lastRTT  float64
	lastAckT float64
	haveRTT  bool

	// delivered is an EWMA of the ACK-clocked delivery rate, bytes/s —
	// the floor the multiplicative decrease aims Beta× below.
	delivered float64

	underuse bool
	overuses int64

	overuseCtr *metrics.Counter
}

var _ transport.Transport = (*Controller)(nil)

// New returns a delay controller (zero cfg fields take defaults).
func New(cfg Config) *Controller {
	cfg.setDefaults()
	return &Controller{
		Base:      transport.NewBase(cfg.Base),
		cfg:       cfg,
		filter:    newKalman(cfg.ProcessNoise, cfg.NoiseInit, cfg.NoiseChi),
		detect:    newDetector(cfg.Gamma0, cfg.GammaMin, cfg.GammaMax, cfg.KUp, cfg.KDown, cfg.OveruseTime),
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
		if b := c.Backoff(now, c.cfg.Beta*target, nil); b != nil {
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
