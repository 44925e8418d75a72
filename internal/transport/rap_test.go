package transport

import (
	"math/rand"
	"testing"

	"qav/internal/seqwin"
)

// spikyPath is a lossless path with a fixed RTT whose ACK direction
// stalls now and then, as a loaded host's scheduler stalls loopback: a
// spike holds every ACK due in [start, end) until end and releases them
// in order. drop names one data packet the path loses (-1: none), and
// dropLast loses the last packet sent.
type spikyPath struct {
	rtt      float64
	spikes   bool
	seed     int64
	drop     int64
	dropLast bool
}

// pathRun is what one run of a RAP sender over a spikyPath showed.
type pathRun struct {
	ctr    Counters
	spikes int
	// backoffs are the rate decreases in order, byStep whether each was
	// Step's (a timeout) rather than OnAck's (the reorder gap).
	backoffs []Backoff
	byStep   []bool
	// lastSeq and lastAt are the last packet sent and when.
	lastSeq int64
	lastAt  float64
}

// run sends packets at the RAP sender's pace for dur seconds of
// virtual time (packets more than dur after the start are not sent),
// ACKs each on the path, steps the sender every StepInterval, and
// keeps stepping for one second after the last send.
func (p spikyPath) run(r *RAP, dur float64) pathRun {
	const big = 1e18
	rng := rand.New(rand.NewSource(p.seed))
	type ack struct {
		at  float64
		seq int64
	}
	var (
		out                pathRun
		acks               []ack // arrival order is send order
		spikeAt, spikeEnd  = -1.0, -1.0
		nextSpike          = int64(24 + rng.Intn(36))
		nextSend, nextStep = 0.0, r.StepInterval()
	)
	record := func(b *Backoff, byStep bool) {
		if b != nil {
			cp := *b
			cp.LostSeqs = append([]int64(nil), b.LostSeqs...)
			out.backoffs = append(out.backoffs, cp)
			out.byStep = append(out.byStep, byStep)
		}
	}
	for end := dur + 1; ; {
		ackAt := big
		if len(acks) > 0 {
			ackAt = acks[0].at
		}
		now := min(ackAt, nextStep, nextSend)
		if now > end {
			break
		}
		switch now {
		case ackAt:
			record(r.OnAck(now, acks[0].seq), false)
			acks = acks[1:]
		case nextStep:
			record(r.Step(now), true)
			nextStep = now + r.StepInterval()
		default:
			seq := r.OnSend(now)
			at := now + p.rtt
			if p.spikes && seq == nextSpike {
				spikeAt, spikeEnd = at, at+0.005+0.010*rng.Float64()
				nextSpike += int64(24 + rng.Intn(36))
				out.spikes++
			}
			if at >= spikeAt && at < spikeEnd {
				at = spikeEnd
			}
			if seq != p.drop {
				acks = append(acks, ack{at, seq})
			}
			out.lastSeq, out.lastAt = seq, now
			if nextSend = now + r.IPG(); nextSend > dur {
				nextSend = big
				if p.dropLast {
					acks = acks[:len(acks)-1]
				}
			}
		}
	}
	out.ctr = r.Counters()
	return out
}

// serverRAP is a RAP sender as a server session runs it: 1400-byte
// packets, a 20 ms initial RTT and a cap of 1000 packets per second, so
// a 1 ms path holds about one packet in flight.
func serverRAP() *RAP {
	return NewRAP(RAPConfig{PacketSize: 1400, MaxRate: 1.4e6, InitialRTT: 0.02})
}

// TestRAPBacksOffOnLossNotDelay: on a lossless 1 ms path whose ACKs
// stall for 5-15 ms every few dozen packets, RAP makes no timeout and
// no backoff, since the RTO never falls under seqwin.MinRTO. Losses are
// still found: a packet dropped mid-stream by the reorder gap, a
// dropped last packet by the timeout within one MinRTO.
func TestRAPBacksOffOnLossNotDelay(t *testing.T) {
	const rtt, dur = 0.001, 5.0
	t.Run("delay", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			got := spikyPath{rtt: rtt, spikes: true, seed: seed, drop: -1}.run(serverRAP(), dur)
			if got.spikes < 50 || got.ctr.Sent < 4000 {
				t.Fatalf("seed %d: %d spikes, %d packets; want ≥ 50 and ≥ 4000", seed, got.spikes, got.ctr.Sent)
			}
			if got.ctr.Backoffs != 0 || got.ctr.Timeouts != 0 || got.ctr.Lost != 0 || got.ctr.Acked != got.ctr.Sent {
				t.Errorf("seed %d: %d spikes of ACK delay, no loss: counters %+v, want every packet acked, no backoff, timeout or loss", seed, got.spikes, got.ctr)
			}
		}
	})
	t.Run("drop-mid-stream", func(t *testing.T) {
		const drop = 2500
		got := spikyPath{rtt: rtt, spikes: true, seed: 1, drop: drop}.run(serverRAP(), dur)
		if got.ctr.Timeouts != 0 || len(got.backoffs) != 1 || got.byStep[0] ||
			len(got.backoffs[0].LostSeqs) != 1 || got.backoffs[0].LostSeqs[0] != drop {
			t.Fatalf("counters %+v, backoffs %+v (by Step %v); want one backoff by the reorder gap for seq %d", got.ctr, got.backoffs, got.byStep, drop)
		}
	})
	t.Run("drop-last", func(t *testing.T) {
		got := spikyPath{rtt: rtt, drop: -1, dropLast: true}.run(serverRAP(), dur)
		if len(got.backoffs) != 1 || !got.byStep[0] || got.ctr.Timeouts != 1 ||
			len(got.backoffs[0].LostSeqs) != 1 || got.backoffs[0].LostSeqs[0] != got.lastSeq {
			t.Fatalf("counters %+v, backoffs %+v (by Step %v); want one timeout backoff for the last seq %d", got.ctr, got.backoffs, got.byStep, got.lastSeq)
		}
		// Step runs once per SRTT, about one path RTT.
		if after := got.backoffs[0].Time - got.lastAt; after > seqwin.MinRTO+2*rtt {
			t.Fatalf("last packet found %.1f ms after its send, want within one %.0f ms RTO", 1e3*after, 1e3*seqwin.MinRTO)
		}
	})
}
