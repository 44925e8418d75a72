package transport

import (
	"math"

	"qav/internal/metrics"
	"qav/internal/seqwin"
)

// reorderGap is how many later ACKs must pass a hole before the packet
// is declared lost (the TCP dup-ack threshold analogue).
const reorderGap = 3

// BaseConfig parameterizes the bookkeeping shared by the rate-based
// backends (RAP, transport/delay, transport/greedy).
type BaseConfig struct {
	// PacketSize is the fixed payload size in bytes (default 512).
	PacketSize int
	// InitialRate is the starting transmission rate, bytes/s (default
	// two packets per InitialRTT).
	InitialRate float64
	// MaxRate optionally caps the rate (0 = uncapped), bytes/s.
	MaxRate float64
	// InitialRTT seeds the SRTT estimator, seconds (default 100 ms).
	InitialRTT float64
}

// SetDefaults fills zero fields in place.
func (c *BaseConfig) SetDefaults() {
	if c.PacketSize <= 0 {
		c.PacketSize = 512
	}
	if c.InitialRTT <= 0 {
		c.InitialRTT = 0.1
	}
	if c.InitialRate <= 0 {
		c.InitialRate = 2 * float64(c.PacketSize) / c.InitialRTT
	}
}

// Base implements the transport bookkeeping every rate-based backend
// needs — sequence numbers and the outstanding window with its ACK- and
// timeout-based loss inference (seqwin.Window), SRTT/RTO estimation
// with a peak-RTT envelope, and clustered rate decreases — so a backend
// only writes its rate policy. The figure goldens and the model digest
// pin its arithmetic through the RAP backend, and internal/rap's
// differential holds it to the pre-Base RAP sender call by call.
//
// Not goroutine-safe; one flow owns one Base.
type Base struct {
	cfg BaseConfig
	ctr Counters

	rate float64

	srtt    float64
	rttvar  float64
	timeout float64
	gotRTT  bool
	peakRTT float64

	win seqwin.Window // sequence counter, send times and tags, highest ACK

	// ackTag/ackFresh are what the last AckRTT acknowledged (see Acked).
	ackTag   int32
	ackFresh bool

	backoffFence float64

	// scratch and lost are reused across events so the steady-state ACK
	// path allocates nothing, loss episodes included.
	scratch Backoff
	lost    []int64

	ins       *Instruments
	lastAckAt float64
}

// NewBase returns an initialized Base (cfg defaults filled in place).
func NewBase(cfg BaseConfig) Base {
	cfg.SetDefaults()
	return Base{
		cfg:       cfg,
		rate:      cfg.InitialRate,
		srtt:      cfg.InitialRTT,
		rttvar:    cfg.InitialRTT / 2,
		timeout:   3 * cfg.InitialRTT,
		lastAckAt: -1,
	}
}

// Rate returns the current transmission rate, bytes/s.
func (b *Base) Rate() float64 { return b.rate }

// SetRate sets the rate, clamped to [one packet per 2 s, MaxRate].
func (b *Base) SetRate(r float64) {
	if minRate := float64(b.cfg.PacketSize) / 2; r < minRate {
		r = minRate
	}
	if b.cfg.MaxRate > 0 && r > b.cfg.MaxRate {
		r = b.cfg.MaxRate
	}
	b.rate = r
}

// IPG returns the current inter-packet gap, seconds.
func (b *Base) IPG() float64 { return float64(b.cfg.PacketSize) / b.rate }

// SRTT returns the smoothed RTT estimate, seconds.
func (b *Base) SRTT() float64 { return b.srtt }

// PeakRTT returns the slowly decaying SRTT envelope (conservative-slope
// denominators use it; zero before the first sample).
func (b *Base) PeakRTT() float64 {
	if b.peakRTT > 0 {
		return b.peakRTT
	}
	return b.srtt
}

// StepInterval returns one SRTT, the periodic decision cadence.
func (b *Base) StepInterval() float64 { return b.srtt }

// PacketSize returns the configured payload size, bytes.
func (b *Base) PacketSize() int { return b.cfg.PacketSize }

// Counters returns the cumulative decision counts.
func (b *Base) Counters() Counters { return b.ctr }

// Outstanding returns the number of unacknowledged packets.
func (b *Base) Outstanding() int { return b.win.Len() }

// OnSend registers a packet transmission at now and returns its
// sequence number.
func (b *Base) OnSend(now float64) int64 {
	b.ctr.Sent++
	return b.win.Send(now)
}

// Tag labels the outstanding sequence seq (call it right after the
// OnSend that returned seq). The flow driver stores the packet's layer
// here, so attribution lives and dies with the window entry.
func (b *Base) Tag(seq int64, tag int32) { b.win.SetTag(seq, tag) }

// Acked reports what the last OnAck acknowledged: fresh is true when its
// sequence was outstanding — not a duplicate, not already declared lost,
// not never sent — and tag is then the label Tag gave it (0 if none).
func (b *Base) Acked() (tag int32, fresh bool) { return b.ackTag, b.ackFresh }

// AckRTT records the acknowledgement bookkeeping for seq at now —
// outstanding removal, RTT/RTO update, instrument observations — and
// returns the RTT sample (ok=false for a duplicate, and for a sequence
// never sent, which is otherwise ignored).
// Callers follow it with ReorderLosses to pick up any newly inferable
// losses.
func (b *Base) AckRTT(now float64, seq int64) (rtt float64, ok bool) {
	if b.ins != nil {
		if b.lastAckAt >= 0 {
			b.ins.AckGap.Observe(now - b.lastAckAt)
		}
		b.lastAckAt = now
	}
	sendTime, tag, had := b.win.Ack(seq)
	b.ackTag, b.ackFresh = tag, had
	if !had {
		return 0, false
	}
	b.ctr.Acked++
	rtt = now - sendTime
	b.updateRTT(rtt)
	return rtt, true
}

// ReorderLosses returns, in ascending order, the outstanding packets
// whose sequence trails the highest ACK by at least the reorder gap,
// removing them from the outstanding set. The returned slice is reused
// across calls.
func (b *Base) ReorderLosses() []int64 {
	b.lost = b.win.GapLost(b.lost[:0], reorderGap)
	b.ctr.Lost += int64(len(b.lost))
	return b.lost
}

// TimeoutLosses returns, in ascending order, the outstanding packets
// older than the RTO, removing them and counting a timeout event when
// any are found. The returned slice is reused across calls.
func (b *Base) TimeoutLosses(now float64) []int64 {
	b.lost = b.win.TimedOut(b.lost[:0], now, b.timeout)
	b.ctr.Lost += int64(len(b.lost))
	if len(b.lost) > 0 {
		b.ctr.Timeouts++
		if b.ins != nil {
			b.ins.Timeouts.Inc()
		}
	}
	return b.lost
}

// Backoff applies one clustered rate decrease to newRate at now and
// returns the event, or nil when now is still inside the previous
// cluster's grace window (one SRTT): losses or overuse signals detected
// while the reaction is in flight belong to the cluster already reacted
// to. The returned pointer reuses the Base's scratch event.
func (b *Base) Backoff(now, newRate float64, lostSeqs []int64) *Backoff {
	if now < b.backoffFence {
		return nil
	}
	old := b.rate
	b.SetRate(newRate)
	b.ctr.Backoffs++
	if b.ins != nil {
		b.ins.Backoffs.Inc()
	}
	b.backoffFence = now + b.srtt
	b.scratch = Backoff{Time: now, OldRate: old, NewRate: b.rate, LostSeqs: lostSeqs}
	return &b.scratch
}

func (b *Base) updateRTT(sample float64) {
	if sample <= 0 {
		return
	}
	if !b.gotRTT {
		b.srtt = sample
		b.rttvar = sample / 2
		b.gotRTT = true
	} else {
		const alpha, beta = 1.0 / 8.0, 1.0 / 4.0
		b.rttvar = (1-beta)*b.rttvar + beta*math.Abs(b.srtt-sample)
		b.srtt = (1-alpha)*b.srtt + alpha*sample
	}
	b.timeout = b.srtt + 4*b.rttvar
	if b.timeout < 2*b.srtt {
		b.timeout = 2 * b.srtt
	}
	// Peak envelope: jumps up with SRTT, decays ~1% per sample.
	if b.srtt > b.peakRTT {
		b.peakRTT = b.srtt
	} else {
		b.peakRTT += 0.01 * (b.srtt - b.peakRTT)
	}
	if b.ins != nil {
		b.ins.SRTT.Observe(b.srtt)
	}
}

// Instrument attaches ins and publishes the packet counters and the
// rate under prefix as snapshot-time Func metrics ("<prefix>.sent",
// ".acked", ".lost", ".rate").
func (b *Base) Instrument(reg *metrics.Registry, prefix string, ins *Instruments) {
	b.ins = ins
	reg.CounterFunc(prefix+".sent", func() int64 { return b.ctr.Sent })
	reg.CounterFunc(prefix+".acked", func() int64 { return b.ctr.Acked })
	reg.CounterFunc(prefix+".lost", func() int64 { return b.ctr.Lost })
	reg.GaugeFunc(prefix+".rate", func() float64 { return b.rate })
}
