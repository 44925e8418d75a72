package scenario

import (
	"math"
	"math/rand"
	"testing"

	"qav/internal/sim"
	"qav/internal/transport"
)

// bernoulliPath is a test-only sim.Network for conformance checks: a
// fixed round trip, a serializing FIFO with no buffer limit on the data
// direction, and seeded Bernoulli loss on data. Nothing else drops or
// delays a packet, so a sender's goodput can be held to a formula.
type bernoulliPath struct {
	eng    *sim.Engine
	rng    *rand.Rand
	loss   float64 // data loss probability
	rate   float64 // FIFO service rate, bytes/s
	rtt    float64 // propagation round trip, split evenly
	freeAt float64 // when the FIFO finishes its last queued packet
}

func (n *bernoulliPath) BaseRTT() float64 { return n.rtt }

func (n *bernoulliPath) SendData(p *sim.Packet, dst sim.Receiver) {
	if n.rng.Float64() < n.loss {
		n.eng.Pool().Put(p)
		return
	}
	n.freeAt = max(n.freeAt, n.eng.Now()) + float64(p.Size)/n.rate
	n.deliver(p, dst, n.freeAt+n.rtt/2)
}

func (n *bernoulliPath) SendAck(p *sim.Packet, dst sim.Receiver) {
	n.deliver(p, dst, n.eng.Now()+n.rtt/2)
}

func (n *bernoulliPath) deliver(p *sim.Packet, dst sim.Receiver, at float64) {
	n.eng.At(at, func() {
		dst.Recv(p)
		n.eng.Pool().Put(p)
	})
}

// TestRAPMeetsItsFormula runs one RAP flow over a 100 ms path with
// Bernoulli data loss p from 0.1 % to 10 % and holds its goodput to the
// TCP-friendly rate 1.22·MSS/(RTT·√p_ev), where p_ev is backoffs (loss
// events) per acknowledged packet: the rule RAP is built to follow and
// the one TCP-friendliness is judged by.
func TestRAPMeetsItsFormula(t *testing.T) {
	const (
		rtt, mss    = 0.1, 512
		warmup, dur = 20.0, 300.0
	)
	for i, p := range []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1} {
		eng := sim.NewEngine()
		net := &bernoulliPath{eng: eng, rng: rand.New(rand.NewSource(int64(i + 1))), loss: p, rate: 10e6, rtt: rtt}
		tr := transport.NewRAP(transport.RAPConfig{PacketSize: mss, InitialRTT: rtt})
		src := NewRAPSource(eng, net, 0, tr, 0)
		var at0 transport.Counters
		var bytes0 int64
		eng.At(warmup, func() { at0, bytes0 = tr.Counters(), src.RecvBytes })
		eng.RunUntil(dur)
		ctr := tr.Counters()
		acked, backoffs := ctr.Acked-at0.Acked, ctr.Backoffs-at0.Backoffs
		if backoffs < 50 {
			t.Fatalf("p = %g: %d backoffs in %g s; too few to estimate p_ev", p, backoffs, dur-warmup)
		}
		pEv := float64(backoffs) / float64(acked)
		goodput := float64(src.RecvBytes-bytes0) / (dur - warmup)
		formula := 1.22 * mss / (rtt * math.Sqrt(pEv))
		ratio := goodput / formula
		t.Logf("p = %5.1f %%: %6d acked, %4d backoffs, p_ev %.4f, goodput %6.0f B/s = %.3f × formula", 100*p, acked, backoffs, pEv, goodput, ratio)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("p = %g: goodput %.0f B/s is %.3f × 1.22·MSS/(RTT·√p_ev) = %.0f B/s; want within [0.9, 1.1]", p, goodput, ratio, formula)
		}
	}
}
