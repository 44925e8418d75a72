// Package tcp implements a packet-level Sack-TCP model used as competing
// cross-traffic in the simulator, mirroring the paper's evaluation setup
// (the quality-adaptive flow shares the bottleneck with Sack-TCP flows).
//
// The model is a bulk-transfer (FTP-like) sender with slow start,
// congestion avoidance, fast retransmit/fast recovery driven by a SACK
// scoreboard, and an RTO with exponential backoff. Sequence numbers count
// fixed-size packets. Per-sequence state (SACKed/lost/retransmitted on
// the sender, received on the sink) lives in a windowed scoreboard —
// see scoreboard.go.
package tcp

import (
	"math"

	"qav/internal/seqwin"
	"qav/internal/sim"
)

// Config parameterizes a TCP source.
type Config struct {
	FlowID     int
	PacketSize int     // bytes
	InitialRTT float64 // seeds the RTO before the first sample, seconds
	MaxCwnd    float64 // packets; 0 = unlimited
	Start      float64 // start time, seconds
}

func (c *Config) setDefaults() {
	if c.PacketSize <= 0 {
		c.PacketSize = 512
	}
	if c.InitialRTT <= 0 {
		c.InitialRTT = 0.1
	}
}

// Source is a bulk Sack-TCP sender attached to a dumbbell network.
type Source struct {
	cfg Config
	eng *sim.Engine
	net sim.Network

	cwnd     float64 // packets
	ssthresh float64
	nextSeq  int64 // next new sequence to send
	highAck  int64 // cumulative ACK (first unacked seq)
	dupacks  int

	inRecovery bool
	recover    int64

	board sendBoard // per-sequence sacked/lost/rtx-out state over [highAck, nextSeq)

	rtt        seqwin.RTT
	rtoBackoff float64

	// The retransmission timer is one pending event and a deadline.
	// armRTO moves the deadline (rtoAt, set at rtoArmed) on every ACK; the
	// event (rtoTimer, due at rtoFires) is left alone while it is due no
	// later, and re-schedules itself when it fires ahead of the deadline.
	rtoAt, rtoArmed, rtoFires float64
	rtoTimer                  sim.Timer
	rtoFn                     func(any) // onRTOTimer as a long-lived value: no closure per arm

	sink *sink

	// ins, when set via Instrument, receives per-event recordings. Nil
	// on uninstrumented sources: the record sites are branch-guarded.
	ins *Instruments

	// testTxHook, when non-nil, observes every transmission (tests
	// only: the differential test records decision traces through it).
	testTxHook func(seq int64, retx bool)
	// testArmRTO, when non-nil, stands in for armRTO (tests only: it
	// seats the per-ACK cancel-and-rearm reference, rto_ref_test.go).
	testArmRTO func(pipe int)

	// Stats.
	SentPkts    int64
	RetransPkts int64
	AckedPkts   int64
	Timeouts    int64
	FastRecover int64
}

// NewSource creates a TCP source and its paired sink on net.
func NewSource(eng *sim.Engine, net sim.Network, cfg Config) *Source {
	cfg.setDefaults()
	s := &Source{
		cfg:        cfg,
		eng:        eng,
		net:        net,
		cwnd:       2,
		ssthresh:   64,
		board:      newWindowedSendBoard(),
		rtt:        seqwin.NewRTT(cfg.InitialRTT),
		rtoBackoff: 1,
	}
	s.rtoFn = s.onRTOTimer
	s.sink = &sink{src: s, board: newWindowedRecvBoard()}
	s.sink.ackSink = sim.ReceiverFunc(s.onAck)
	eng.At(cfg.Start, s.trySend)
	return s
}

// Cwnd returns the current congestion window in packets.
func (s *Source) Cwnd() float64 { return s.cwnd }

// GoodputBytes returns bytes cumulatively acknowledged.
func (s *Source) GoodputBytes() int64 { return s.AckedPkts * int64(s.cfg.PacketSize) }

func (s *Source) trySend() {
	window := s.cwnd
	if s.cfg.MaxCwnd > 0 && window > s.cfg.MaxCwnd {
		window = s.cfg.MaxCwnd
	}
	// One count per call, kept current by hand: each transmission puts
	// one more packet in the pipe, except the retransmission of a
	// sequence SACKed after it was marked lost, which the pipe never
	// counts.
	pipe := s.board.pipe()
	for pipe < int(window) {
		// Retransmissions first.
		if seq, ok := s.board.nextLost(); ok {
			s.transmit(seq, true)
			if !s.board.sacked(seq) {
				pipe++
			}
			continue
		}
		s.board.extend(s.nextSeq)
		s.transmit(s.nextSeq, false)
		s.nextSeq++
		pipe++
	}
	s.armRTO(pipe)
}

func (s *Source) transmit(seq int64, retx bool) {
	if s.testTxHook != nil {
		s.testTxHook(seq, retx)
	}
	p := s.eng.Pool().Get()
	p.FlowID, p.Seq, p.Size = s.cfg.FlowID, seq, s.cfg.PacketSize
	p.Kind, p.SendTime, p.Retransmit = sim.Data, s.eng.Now(), retx
	s.SentPkts++
	if retx {
		s.RetransPkts++
		s.board.markRtxOut(seq)
		if s.ins != nil {
			s.ins.FastRetransmits.Inc()
		}
	}
	s.net.SendData(p, s.sink)
}

// armRTO restarts the retransmission timeout from now, or stops it when
// nothing is in flight or awaiting retransmission.
func (s *Source) armRTO(pipe int) {
	if s.testArmRTO != nil {
		s.testArmRTO(pipe)
		return
	}
	if pipe == 0 && s.board.lostCount() == 0 {
		s.rtoTimer.Cancel()
		return
	}
	s.rtoArmed = s.eng.Now()
	s.rtoAt = s.rtoArmed + s.rtt.RTO()*s.rtoBackoff
	if s.rtoTimer.Active() {
		if s.rtoFires <= s.rtoAt {
			return // the pending event fires first and moves itself
		}
		// The deadline came closer (rtoBackoff reset by new data ACKed).
		s.rtoTimer.Cancel()
	}
	s.scheduleRTO()
}

// scheduleRTO puts the timer event at the deadline. The tie key is the
// instant the deadline was set, not now: against another event at
// exactly rtoAt the expiry then orders as if it had been scheduled by
// the armRTO call that set the deadline, as it once was.
func (s *Source) scheduleRTO() {
	s.rtoFires = s.rtoAt
	s.rtoTimer = s.eng.AtFuncPrio(s.rtoAt, s.rtoArmed, s.rtoFn, nil)
}

func (s *Source) onRTOTimer(any) {
	if s.rtoAt > s.eng.Now() {
		s.scheduleRTO() // fired ahead of a deadline that has moved on
		return
	}
	s.onRTO()
}

func (s *Source) onRTO() {
	s.Timeouts++
	if s.ins != nil {
		s.ins.RTOBackoffs.Inc()
	}
	s.ssthresh = math.Max(float64(s.board.pipe())/2, 2)
	s.cwnd = 1
	s.dupacks = 0
	s.inRecovery = false
	s.rtoBackoff = math.Min(s.rtoBackoff*2, 64)
	// Everything unsacked is presumed lost (go-back-N-ish with SACK reuse).
	s.board.markAllUnsackedLost(s.highAck, s.nextSeq)
	s.trySend()
}

// onAck processes a returning acknowledgement.
func (s *Source) onAck(p *sim.Packet) {
	if p.CumAck > s.highAck {
		// New data cumulatively acknowledged.
		newly := p.CumAck - s.highAck
		s.board.advance(s.highAck, p.CumAck)
		s.highAck = p.CumAck
		s.AckedPkts += newly
		s.dupacks = 0
		s.rtoBackoff = 1
		if p.Echo > 0 && s.rtt.Sample(s.eng.Now()-p.Echo) && s.ins != nil {
			s.ins.SRTT.Observe(s.rtt.SRTT())
		}
		if s.inRecovery {
			if s.highAck >= s.recover {
				// Full recovery.
				s.inRecovery = false
				s.cwnd = s.ssthresh
			}
			// Partial ACK: the next hole is already marked lost via the
			// scoreboard update below; stay in recovery.
		} else {
			for i := int64(0); i < newly; i++ {
				if s.cwnd < s.ssthresh {
					s.cwnd++ // slow start
				} else {
					s.cwnd += 1 / s.cwnd // congestion avoidance
				}
			}
		}
	} else if p.CumAck == s.highAck {
		s.dupacks++
	}

	// Absorb SACK information, a block at a time. Every SACKed sequence
	// was transmitted, so the board already covers it; the part of a
	// block below the cumulative ack is no longer tracked.
	highestSacked := int64(-1)
	for _, b := range p.Sack {
		start := b.Start
		if start < s.highAck {
			start = s.highAck
		}
		if start >= b.End {
			continue
		}
		s.board.markSackedRange(start, b.End)
		if b.End-1 > highestSacked {
			highestSacked = b.End - 1
		}
	}
	// Scoreboard loss inference: an unsacked hole with at least three
	// sacked packets above it is lost (simplified IsLost()).
	if highestSacked >= 0 {
		s.board.inferLost(s.highAck, highestSacked)
	}

	if !s.inRecovery && (s.dupacks >= 3 || (s.board.lostCount() > 0 && highestSacked >= 0)) && s.nextSeq > s.highAck {
		// Enter fast recovery.
		s.inRecovery = true
		s.recover = s.nextSeq
		s.ssthresh = math.Max(float64(s.board.pipe())/2, 2)
		s.cwnd = s.ssthresh
		s.FastRecover++
		if s.ins != nil {
			s.ins.Recoveries.Inc()
		}
		if s.board.lostCount() == 0 {
			// Triple dupack without SACK info: first hole is lost.
			s.board.markLost(s.highAck)
		}
	}
	s.trySend()
}

// sink is the receiving side: it acknowledges every data packet with a
// cumulative ACK plus up to three SACK blocks.
type sink struct {
	src     *Source
	board   recvBoard
	ackSink sim.Receiver // long-lived: no closure per ACK
}

// Recv implements sim.Receiver. The ACK reuses the pooled packet's Sack
// backing array, so steady-state acknowledgement costs no allocation.
func (k *sink) Recv(p *sim.Packet) {
	if p.Kind != sim.Data {
		return
	}
	k.board.add(p.Seq)
	ack := k.src.eng.Pool().Get()
	ack.FlowID, ack.Kind, ack.Size = p.FlowID, sim.Ack, sim.AckSize
	ack.CumAck, ack.AckSeq, ack.Echo = k.board.cumack(), p.Seq, p.SendTime
	ack.Sack = k.board.appendSack(ack.Sack[:0])
	k.src.net.SendAck(ack, k.ackSink)
}
