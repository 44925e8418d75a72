package core

import "qav/internal/metrics"

// Instruments are the metric handles the quality adaptation controller
// records through. Controller.event bumps them beside its own running
// sums, so an uninstrumented controller pays one branch per decision
// event (not per packet).
type Instruments struct {
	// Adds counts layers added; Drops counts layers dropped (all causes).
	Adds  *metrics.Counter
	Drops *metrics.Counter
	// CriticalDrops counts drops forced by critical situations (§2.2's
	// persistent drain-plan infeasibility), a subset of Drops.
	CriticalDrops *metrics.Counter
	// PoorDistDrops counts drops where total buffering would have covered
	// the recovery but its distribution did not (Table 2's metric).
	PoorDistDrops *metrics.Counter
	// Backoffs counts congestion backoffs reported to the controller.
	Backoffs *metrics.Counter
	// Stalls counts base-layer underflow playback pauses.
	Stalls *metrics.Counter
}

// NewInstruments registers controller instruments on reg under prefix
// (e.g. prefix "qa" yields "qa.adds", ...). Controllers sharing a
// prefix share aggregated instruments.
func NewInstruments(reg *metrics.Registry, prefix string) *Instruments {
	return &Instruments{
		Adds:          reg.Counter(prefix + ".adds"),
		Drops:         reg.Counter(prefix + ".drops"),
		CriticalDrops: reg.Counter(prefix + ".drops.critical"),
		PoorDistDrops: reg.Counter(prefix + ".drops.poordist"),
		Backoffs:      reg.Counter(prefix + ".backoffs"),
		Stalls:        reg.Counter(prefix + ".stalls"),
	}
}

// Instrument attaches ins and publishes the controller's quality state
// on reg under the same prefix as snapshot-time Func metrics. Call
// before the simulation starts. With a nil reg only ins attaches: the
// server's sessions share counters and publish no per-session gauges,
// so none is named or closed over.
func (c *Controller) Instrument(reg *metrics.Registry, prefix string, ins *Instruments) {
	c.ins = ins
	if reg == nil {
		return
	}
	reg.GaugeFunc(prefix+".layers", func() float64 { return float64(c.na) })
	reg.GaugeFunc(prefix+".buftotal", func() float64 { return c.TotalBuf() })
	reg.GaugeFunc(prefix+".played.sec", func() float64 { return c.PlayedSec })
	reg.GaugeFunc(prefix+".stalled.sec", func() float64 { return c.StallSec() })
	reg.GaugeFunc(prefix+".layers.mean", func() float64 {
		if c.PlayedSec <= 0 {
			return 0
		}
		return c.LayerSeconds / c.PlayedSec
	})
}

// noInstruments is what an uninstrumented controller counts into: every
// handle nil, so inc skips it.
var noInstruments Instruments

func inc(ctr *metrics.Counter) {
	if ctr != nil {
		ctr.Inc()
	}
}
