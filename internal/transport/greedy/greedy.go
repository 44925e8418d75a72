// Package greedy implements a loss-only, throughput-greedy transport —
// the "media over TCP" adversary in the A/B sweeps. It probes with a
// multiplicative slow-start until the first loss, then climbs twice as
// fast as RAP's additive increase and cuts less deeply on loss (×0.7 vs
// RAP's ×0.5). It never reacts to delay, so it fills the bottleneck
// queue and keeps it full: the interesting question the sweep answers
// is what that standing queue does to a QA flow's buffer math.
package greedy

import "qav/internal/transport"

// Config parameterizes the greedy controller. Zero fields take
// defaults.
type Config struct {
	// Base is the shared bookkeeping configuration (packet size, rate
	// cap, initial RTT).
	Base transport.BaseConfig
	// SSGrowth is the per-step multiplicative factor during slow start
	// (default 1.5).
	SSGrowth float64
	// IncreasePkts is how many packets per SRTT the post-slow-start
	// additive increase adds per step (default 2, twice RAP's slope).
	IncreasePkts float64
	// Beta is the multiplicative decrease factor on loss (default 0.7).
	Beta float64
}

func (c *Config) setDefaults() {
	c.Base.SetDefaults()
	if c.SSGrowth <= 1 {
		c.SSGrowth = 1.5
	}
	if c.IncreasePkts <= 0 {
		c.IncreasePkts = 2
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		c.Beta = 0.7
	}
}

// Controller is the greedy transport. Not goroutine-safe; one flow owns
// one Controller.
type Controller struct {
	transport.Base
	cfg       Config
	slowStart bool
}

var _ transport.Transport = (*Controller)(nil)

// New returns a greedy controller (zero cfg fields take defaults).
func New(cfg Config) *Controller {
	cfg.setDefaults()
	return &Controller{Base: transport.NewBase(cfg.Base), cfg: cfg, slowStart: true}
}

// Kind returns transport.KindGreedy.
func (c *Controller) Kind() transport.Kind { return transport.KindGreedy }

// InSlowStart reports whether the first loss has yet to end the
// multiplicative probe phase.
func (c *Controller) InSlowStart() bool { return c.slowStart }

// OnAck processes an acknowledgement; losses inferred via the reorder
// gap trigger the multiplicative decrease.
func (c *Controller) OnAck(now float64, seq int64) *transport.Backoff {
	c.AckRTT(now, seq)
	if lost := c.ReorderLosses(); len(lost) > 0 {
		return c.loss(now, lost)
	}
	return nil
}

// Step runs the periodic decision: timeout losses, then the rate probe
// (multiplicative in slow start, steep additive after).
func (c *Controller) Step(now float64) *transport.Backoff {
	if lost := c.TimeoutLosses(now); len(lost) > 0 {
		return c.loss(now, lost)
	}
	if c.slowStart {
		c.SetRate(c.Rate() * c.cfg.SSGrowth)
	} else {
		c.SetRate(c.Rate() + c.cfg.IncreasePkts*float64(c.PacketSize())/c.SRTT())
	}
	return nil
}

func (c *Controller) loss(now float64, lost []int64) *transport.Backoff {
	c.slowStart = false
	return c.Backoff(now, c.cfg.Beta*c.Rate(), lost)
}

// ConservativeSlope returns the pessimistic increase-slope estimate:
// IncreasePkts packets per peak-RTT, per peak-RTT.
func (c *Controller) ConservativeSlope() float64 {
	prtt := c.PeakRTT()
	return c.cfg.IncreasePkts * float64(c.PacketSize()) / (prtt * prtt)
}
