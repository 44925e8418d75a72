package tcp

import (
	"fmt"
	"strings"
	"testing"

	"qav/internal/sim"
)

// holdNet swallows every packet: the directed retransmission-timer tests
// play the receiver themselves, handing the source ACKs at chosen
// instants.
type holdNet struct{ eng *sim.Engine }

func (n holdNet) SendData(p *sim.Packet, _ sim.Receiver) { n.eng.Pool().Put(p) }
func (n holdNet) SendAck(p *sim.Packet, _ sim.Receiver)  { n.eng.Pool().Put(p) }
func (holdNet) BaseRTT() float64                         { return 0.1 }

// rtoRun runs one scripted source, with the shipped deadline timer or
// the cancel-and-rearm reference, and returns everything it did: one
// line per transmission (time, sequence, retransmit flag) and the final
// counters. script runs before the engine starts and schedules the ACKs.
func rtoRun(rearm bool, cfg Config, until float64, script func(eng *sim.Engine, s *Source)) []string {
	eng := sim.NewEngine()
	s := NewSource(eng, holdNet{eng}, cfg)
	if rearm {
		useRearmRTO(s)
	}
	var log []string
	s.testTxHook = func(seq int64, retx bool) {
		log = append(log, fmt.Sprintf("t=%.17g seq=%d retx=%v rtos=%d", eng.Now(), seq, retx, s.Timeouts))
	}
	script(eng, s)
	eng.RunUntil(until)
	return append(log, fmt.Sprintf("sent=%d retx=%d acked=%d rto=%d cwnd=%.6f", s.SentPkts, s.RetransPkts, s.AckedPkts, s.Timeouts, s.Cwnd()))
}

// ackAt hands s a cumulative ACK at time t, from an event scheduled now.
func ackAt(eng *sim.Engine, s *Source, t float64, cum int64) {
	eng.At(t, func() {
		p := eng.Pool().Get()
		p.Kind, p.CumAck = sim.Ack, cum
		s.onAck(p)
		eng.Pool().Put(p)
	})
}

// TestRTODeadlineTimerDirected drives the deadline timer and the
// reference through the cases where they work differently inside and
// must not differ outside: every transmission and every timeout at the
// same instant.
func TestRTODeadlineTimerDirected(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		until  float64
		script func(eng *sim.Engine, s *Source)
		want   int64 // timeouts
	}{
		{
			// ACKs keep moving the deadline on; the one event fires early
			// again and again and expires only 0.3 s after the last ACK.
			name: "fires-early-and-moves", cfg: Config{InitialRTT: 0.1}, until: 1.5, want: 1,
			script: func(eng *sim.Engine, s *Source) {
				for i := int64(1); i <= 10; i++ {
					ackAt(eng, s, 0.1*float64(i), i)
				}
			},
		},
		{
			// Two timeouts double the backoff twice; the deadline after the
			// second is 0.9+1.2. An ACK for new data at 1.0 resets the
			// backoff, so the deadline is pulled in to 1.0+0.3, ahead of the
			// pending event: the only case that cancels and re-schedules.
			name: "earlier-after-backoff-reset", cfg: Config{InitialRTT: 0.1}, until: 1.5, want: 3,
			script: func(eng *sim.Engine, s *Source) { ackAt(eng, s, 1.0, 1) },
		},
		{
			// A window below one packet sends nothing, so the ACK of the only
			// packet leaves pipe == 0 and nothing lost: disarm, and no
			// timeout however long the wait. Sending again re-arms.
			name: "disarm-then-rearm", cfg: Config{InitialRTT: 0.1, MaxCwnd: 1}, until: 5.5, want: 1,
			script: func(eng *sim.Engine, s *Source) {
				eng.At(0.05, func() { s.cfg.MaxCwnd = 0.5 })
				ackAt(eng, s, 0.05, 1)
				eng.At(5, func() {
					if s.Timeouts != 0 {
						t.Errorf("disarmed timer expired %d times", s.Timeouts)
					}
					s.cfg.MaxCwnd = 1
					s.trySend()
				})
			},
		},
		{
			// An ACK in the very instant of the expiry, from an event
			// scheduled before the timer was armed: it runs first and the
			// expiry must not happen.
			name: "ack-first-in-the-expiry-instant", cfg: Config{InitialRTT: 0.1, Start: 0.1}, until: 0.6, want: 0,
			script: func(eng *sim.Engine, s *Source) {
				ackAt(eng, s, s.cfg.Start+s.rtt.RTO()*s.rtoBackoff, 1) // the source's own sum, bit for bit
				ackAt(eng, s, 0.5, 3)
			},
		},
		{
			// The same instant, the ACK's event scheduled after the arm: the
			// expiry runs first.
			name: "expiry-first-in-the-ack-instant", cfg: Config{InitialRTT: 0.1, Start: 0.1}, until: 0.6, want: 1,
			script: func(eng *sim.Engine, s *Source) {
				eng.At(0.2, func() { ackAt(eng, s, s.cfg.Start+s.rtt.RTO()*s.rtoBackoff, 1) })
			},
		},
		{
			// The same again with an expiry that has moved: armed at 0 for
			// 0.3, pushed to 0.1+0.3 by an ACK, so the event that fired at 0.3
			// re-scheduled itself. It must still order by the instant its
			// deadline was set (0.1), ahead of an ACK scheduled at 0.2.
			name: "moved-expiry-first-in-the-ack-instant", cfg: Config{InitialRTT: 0.1}, until: 0.6, want: 1,
			script: func(eng *sim.Engine, s *Source) {
				ackAt(eng, s, 0.1, 1)
				eng.At(0.2, func() { ackAt(eng, s, 0.1+s.rtt.RTO()*s.rtoBackoff, 2) })
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := rtoRun(true, tc.cfg, tc.until, tc.script)
			got := rtoRun(false, tc.cfg, tc.until, tc.script)
			if len(ref) != len(got) {
				t.Fatalf("reference logged %d lines, deadline timer %d:\n%v\n%v", len(ref), len(got), ref, got)
			}
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("line %d differs:\nreference      %s\ndeadline timer %s", i, ref[i], got[i])
				}
			}
			if want := fmt.Sprintf(" rto=%d ", tc.want); !strings.Contains(got[len(got)-1], want) {
				t.Fatalf("final stats %q, want%s", got[len(got)-1], want)
			}
		})
	}
}
