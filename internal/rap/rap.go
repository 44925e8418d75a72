// Package rap implements the Rate Adaptation Protocol sender and receiver
// state machines (Rejaie, Handley, Estrin — RAP), the TCP-friendly,
// rate-based AIMD congestion control the paper's quality adaptation runs
// on. Per the paper, this is the RAP variant *without* fine-grain
// inter-ACK adaptation, whose sawtooth is simple to predict.
//
// The state machine is transport-agnostic: it is driven by wall- or
// virtual-clock timestamps passed into its methods, so the same code runs
// inside the discrete-event simulator and over real UDP sockets.
package rap

import (
	"fmt"
	"math"

	"qav/internal/seqwin"
)

// Config parameterizes a RAP sender.
type Config struct {
	// PacketSize is the fixed payload size in bytes.
	PacketSize int
	// InitialRate is the starting transmission rate, bytes/s.
	InitialRate float64
	// MinRate bounds multiplicative decrease, bytes/s.
	MinRate float64
	// MaxRate optionally caps the rate (0 = uncapped), bytes/s.
	MaxRate float64
	// InitialRTT seeds the SRTT estimator, seconds.
	InitialRTT float64
	// ReorderGap is how many later ACKs must pass a hole before the
	// packet is declared lost (the TCP dup-ack threshold analogue).
	ReorderGap int64
	// FineGrain enables the RAP variant with fine-grain inter-ACK rate
	// adaptation (short/long RTT ratio modulating the inter-packet
	// gap). The quality adaptation paper analyzes the variant without
	// it; the variant with it is smoother against TCP.
	FineGrain bool
}

func (c *Config) setDefaults() {
	if c.PacketSize <= 0 {
		c.PacketSize = 512
	}
	if c.InitialRTT <= 0 {
		c.InitialRTT = 0.1
	}
	if c.InitialRate <= 0 {
		c.InitialRate = 2 * float64(c.PacketSize) / c.InitialRTT
	}
	if c.MinRate <= 0 {
		c.MinRate = float64(c.PacketSize) / 2.0 // one packet per 2s floor
	}
	if c.ReorderGap <= 0 {
		c.ReorderGap = 3
	}
}

// Backoff describes one multiplicative decrease event. The event and
// its LostSeqs (ascending) live in scratch space the sender reuses: both
// are valid until the next OnAck or Step call, so a consumer that
// retains them across further events must copy them first (every
// consumer in this repo reacts immediately).
type Backoff struct {
	Time     float64
	OldRate  float64
	NewRate  float64
	LostSeqs []int64
}

// Sender is the RAP congestion control state machine. It is not
// goroutine-safe; callers serialize access (the simulator is single
// threaded, the UDP endpoint owns it from one goroutine).
type Sender struct {
	cfg Config

	rate float64 // current transmission rate, bytes/s

	srtt    float64
	rttvar  float64
	timeout float64
	gotRTT  bool
	peakRTT float64 // slowly decaying envelope of srtt, for ConservativeSlope

	// win holds the sequence counter, the send time of every packet not
	// yet acknowledged or declared lost, and the highest sequence
	// acknowledged.
	win seqwin.Window

	lastBackoff  float64 // time of the most recent backoff
	backoffFence float64 // losses of packets sent before this time are one cluster

	fg fineGrain

	// ins, when set via Instrument, receives per-event recordings. Nil
	// on uninstrumented senders: the record sites are branch-guarded.
	ins       *Instruments
	lastAckAt float64

	// lostBuf and scratch back the Backoff returned for a loss event; a
	// long-lived sender detecting losses every congestion cycle must
	// not allocate per event.
	lostBuf []int64
	scratch Backoff

	// Counters for inspection and tests.
	Sent      int64
	Acked     int64
	Lost      int64
	Backoffs  int64
	TimeoutEv int64
}

// NewSender returns a RAP sender with cfg (zero fields take defaults).
func NewSender(cfg Config) *Sender {
	cfg.setDefaults()
	return &Sender{
		cfg:         cfg,
		rate:        cfg.InitialRate,
		srtt:        cfg.InitialRTT,
		rttvar:      cfg.InitialRTT / 2,
		timeout:     cfg.InitialRTT + 2*cfg.InitialRTT,
		lastBackoff: math.Inf(-1),
		lastAckAt:   -1,
		fg:          fineGrain{enabled: cfg.FineGrain},
	}
}

// Rate returns the current transmission rate in bytes/s.
func (s *Sender) Rate() float64 { return s.rate }

// IPG returns the current inter-packet gap in seconds, including the
// fine-grain feedback adjustment when that variant is enabled.
func (s *Sender) IPG() float64 {
	return float64(s.cfg.PacketSize) / s.rate * s.fg.factor()
}

// FineGrainFactor returns the current fine-grain IPG multiplier (1 when
// the variant is disabled).
func (s *Sender) FineGrainFactor() float64 { return s.fg.factor() }

// SRTT returns the smoothed round-trip time estimate in seconds.
func (s *Sender) SRTT() float64 { return s.srtt }

// PacketSize returns the configured packet size in bytes.
func (s *Sender) PacketSize() int { return s.cfg.PacketSize }

// Slope returns the current additive-increase slope S in bytes/s²: RAP
// increases the rate by one packet per SRTT, once per SRTT.
func (s *Sender) Slope() float64 {
	return float64(s.cfg.PacketSize) / (s.srtt * s.srtt)
}

// ConservativeSlope returns a pessimistic slope estimate based on the
// peak-RTT envelope rather than the instantaneous SRTT. Queue buildup
// makes SRTT — and hence the instantaneous slope — swing several-fold
// within one congestion cycle; the paper (§2.2) names slope misestimation
// as a cause of critical situations, so quality adaptation decisions use
// this slower, smaller estimate.
func (s *Sender) ConservativeSlope() float64 {
	rtt := s.peakRTT
	if rtt <= 0 {
		rtt = s.srtt
	}
	return float64(s.cfg.PacketSize) / (rtt * rtt)
}

// StepInterval returns how often Step should be invoked (one SRTT).
func (s *Sender) StepInterval() float64 { return s.srtt }

// Outstanding returns the number of unacknowledged packets.
func (s *Sender) Outstanding() int { return s.win.Len() }

// OnSend registers a packet transmission at time now and returns its
// sequence number.
func (s *Sender) OnSend(now float64) int64 {
	s.Sent++
	return s.win.Send(now)
}

// OnAck processes an acknowledgement for seq received at time now. It
// returns the backoff performed, if any (loss inferred from the ACK
// pattern), or nil.
func (s *Sender) OnAck(now float64, seq int64) *Backoff {
	if s.ins != nil {
		if s.lastAckAt >= 0 {
			s.ins.AckGap.Observe(now - s.lastAckAt)
		}
		s.lastAckAt = now
	}
	if sendTime, ok := s.win.Ack(seq); ok {
		s.Acked++
		s.updateRTT(now - sendTime)
		s.fg.sample(now - sendTime)
	}
	// ACK-based loss detection: any packet still outstanding whose
	// sequence trails the highest ACK by at least the reorder gap is
	// considered lost.
	lost := s.win.GapLost(s.lostBuf[:0], s.cfg.ReorderGap)
	s.lostBuf = lost
	s.Lost += int64(len(lost))
	if len(lost) == 0 {
		return nil
	}
	return s.lossEvent(now, lost)
}

// Step performs the periodic (once per SRTT) rate decision: checking for
// timed-out packets and, absent loss, applying the additive increase. It
// returns the backoff performed, if any.
func (s *Sender) Step(now float64) *Backoff {
	// Timeout-based loss detection.
	lost := s.win.TimedOut(s.lostBuf[:0], now, s.timeout)
	s.lostBuf = lost
	s.Lost += int64(len(lost))
	if len(lost) > 0 {
		s.TimeoutEv++
		if s.ins != nil {
			s.ins.Timeouts.Inc()
		}
		if b := s.lossEvent(now, lost); b != nil {
			return b
		}
		return nil
	}
	// Additive increase: one packet per SRTT.
	s.rate += float64(s.cfg.PacketSize) / s.srtt
	if s.cfg.MaxRate > 0 && s.rate > s.cfg.MaxRate {
		s.rate = s.cfg.MaxRate
	}
	return nil
}

// lossEvent applies one multiplicative decrease per loss cluster: losses
// of packets sent before the current backoff fence belong to the cluster
// already reacted to.
func (s *Sender) lossEvent(now float64, lost []int64) *Backoff {
	if len(lost) == 0 {
		return nil
	}
	if now < s.backoffFence {
		return nil // still reacting to the previous cluster
	}
	old := s.rate
	s.rate /= 2
	if s.rate < s.cfg.MinRate {
		s.rate = s.cfg.MinRate
	}
	s.Backoffs++
	if s.ins != nil {
		s.ins.Backoffs.Inc()
	}
	s.lastBackoff = now
	// One SRTT of grace: losses detected within it are the same cluster.
	s.backoffFence = now + s.srtt
	s.scratch = Backoff{Time: now, OldRate: old, NewRate: s.rate, LostSeqs: lost}
	return &s.scratch
}

func (s *Sender) updateRTT(sample float64) {
	if sample <= 0 {
		return
	}
	if !s.gotRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.gotRTT = true
	} else {
		const alpha, beta = 1.0 / 8.0, 1.0 / 4.0
		s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(s.srtt-sample)
		s.srtt = (1-alpha)*s.srtt + alpha*sample
	}
	s.timeout = s.srtt + 4*s.rttvar
	if s.timeout < 2*s.srtt {
		s.timeout = 2 * s.srtt
	}
	// Peak envelope: jumps up with SRTT, decays slowly (~1% per sample).
	if s.srtt > s.peakRTT {
		s.peakRTT = s.srtt
	} else {
		s.peakRTT += 0.01 * (s.srtt - s.peakRTT)
	}
	if s.ins != nil {
		s.ins.SRTT.Observe(s.srtt)
	}
}

// String summarizes the sender state, for traces and debugging.
func (s *Sender) String() string {
	return fmt.Sprintf("rap(rate=%.0fB/s srtt=%.1fms out=%d backoffs=%d)",
		s.rate, s.srtt*1000, s.win.Len(), s.Backoffs)
}
