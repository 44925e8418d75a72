package rap

import (
	"math"
	"sort"
	"testing"

	"qav/internal/transport"
)

func newTestSender() *Sender {
	return NewSender(Config{PacketSize: 512, InitialRTT: 0.04, InitialRate: 512 / 0.04})
}

func TestAdditiveIncrease(t *testing.T) {
	s := newTestSender()
	r0 := s.Rate()
	// Ten loss-free steps: rate grows by P/srtt each.
	for i := 0; i < 10; i++ {
		if b := s.Step(float64(i) * s.SRTT()); b != nil {
			t.Fatalf("unexpected backoff on loss-free step %d", i)
		}
	}
	want := r0 + 10*512/s.SRTT()
	if math.Abs(s.Rate()-want) > 1e-6 {
		t.Fatalf("rate after 10 steps = %v, want %v", s.Rate(), want)
	}
}

func TestMultiplicativeDecreaseOnAckGap(t *testing.T) {
	s := newTestSender()
	var seqs []int64
	for i := 0; i < 10; i++ {
		seqs = append(seqs, s.OnSend(float64(i)*0.01))
	}
	r0 := s.Rate()
	// ACK everything except seq 2; the hole is detected once ACKs pass it
	// by the reorder gap.
	var backoffs []*transport.Backoff
	for _, q := range seqs {
		if q == 2 {
			continue
		}
		if b := s.OnAck(0.2, q); b != nil {
			backoffs = append(backoffs, b)
		}
	}
	if len(backoffs) != 1 {
		t.Fatalf("got %d backoffs, want 1", len(backoffs))
	}
	if math.Abs(s.Rate()-r0/2) > 1e-9 {
		t.Fatalf("rate after backoff = %v, want %v", s.Rate(), r0/2)
	}
	if got := backoffs[0].LostSeqs; len(got) != 1 || got[0] != 2 {
		t.Fatalf("lost seqs %v, want [2]", got)
	}
	if c := s.Counters(); c.Lost != 1 || c.Acked != 9 {
		t.Fatalf("counters lost=%d acked=%d, want 1/9", c.Lost, c.Acked)
	}
}

func TestLossClusterSingleBackoff(t *testing.T) {
	s := newTestSender()
	for i := 0; i < 20; i++ {
		s.OnSend(float64(i) * 0.001)
	}
	r0 := s.Rate()
	// Lose seqs 0..4; ack the rest at the same instant. All five holes are
	// one congestion event and must halve the rate exactly once.
	n := 0
	for q := int64(5); q < 20; q++ {
		if b := s.OnAck(0.1, q); b != nil {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("cluster of 5 losses caused %d backoffs, want 1", n)
	}
	if math.Abs(s.Rate()-r0/2) > 1e-9 {
		t.Fatalf("rate = %v, want single halving to %v", s.Rate(), r0/2)
	}
}

func TestSecondClusterAfterFenceBacksOffAgain(t *testing.T) {
	s := newTestSender()
	for i := 0; i < 10; i++ {
		s.OnSend(0.0)
	}
	r0 := s.Rate()
	s.OnAck(0.1, 4) // loses 0 and 1 -> backoff 1
	// Well past the one-SRTT fence: a new hole is a new congestion event.
	tLater := 0.1 + 2*s.SRTT() + 0.01
	s.OnAck(tLater, 9) // loses 2,3,5,6 -> backoff 2
	if n := s.Counters().Backoffs; n != 2 {
		t.Fatalf("backoffs = %d, want 2", n)
	}
	if s.Rate() >= r0/2 {
		t.Fatalf("rate %v not reduced twice from %v", s.Rate(), r0)
	}
}

func TestTimeoutDetection(t *testing.T) {
	s := newTestSender()
	s.OnSend(0)
	b := s.Step(10) // way past any timeout
	if b == nil {
		t.Fatal("timed-out packet did not trigger backoff")
	}
	if c := s.Counters(); c.Timeouts != 1 || c.Lost != 1 {
		t.Fatalf("timeouts=%d lost=%d, want 1/1", c.Timeouts, c.Lost)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after timeout, want 0", s.Outstanding())
	}
}

// The floor is one packet per 2 s.
func TestMinRateFloor(t *testing.T) {
	s := NewSender(Config{PacketSize: 512, InitialRTT: 0.04, InitialRate: 1000})
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			s.OnSend(float64(i))
		}
		s.Step(float64(i) + 100*float64(i+1)) // force timeouts
	}
	if s.Rate() != 256 {
		t.Fatalf("rate %v after ten timeouts, want the 256 B/s floor", s.Rate())
	}
}

func TestMaxRateCap(t *testing.T) {
	s := NewSender(Config{PacketSize: 512, InitialRTT: 0.04, InitialRate: 1000, MaxRate: 2000})
	for i := 0; i < 100; i++ {
		s.Step(float64(i) * 0.04)
	}
	if s.Rate() > 2000 {
		t.Fatalf("rate %v exceeds MaxRate", s.Rate())
	}
}

func TestRTTEstimation(t *testing.T) {
	s := newTestSender()
	// Constant 80 ms RTT samples converge the estimator.
	for i := 0; i < 100; i++ {
		now := float64(i) * 0.1
		q := s.OnSend(now)
		s.OnAck(now+0.08, q)
	}
	if math.Abs(s.SRTT()-0.08) > 0.005 {
		t.Fatalf("srtt = %v, want ~0.08", s.SRTT())
	}
	// At a constant RTT the peak envelope is the SRTT, so the
	// conservative slope is the instantaneous P/srtt².
	wantS := 512 / (s.SRTT() * s.SRTT())
	if math.Abs(s.ConservativeSlope()-wantS) > 1e-6*wantS {
		t.Fatalf("slope = %v, want %v", s.ConservativeSlope(), wantS)
	}
}

func TestSeqNumbersMonotone(t *testing.T) {
	s := newTestSender()
	var seqs []int64
	for i := 0; i < 100; i++ {
		seqs = append(seqs, s.OnSend(float64(i)))
	}
	if !sort.SliceIsSorted(seqs, func(i, j int) bool { return seqs[i] < seqs[j] }) {
		t.Fatal("sequence numbers not monotone")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatal("sequence numbers not consecutive")
		}
	}
}

// Sawtooth shape: in a closed loop with a fixed capacity, the rate must
// oscillate (AIMD hunting) around the capacity, not converge or diverge.
func TestSawtoothAroundCapacity(t *testing.T) {
	s := newTestSender()
	const capacity = 50000.0 // bytes/s
	now := 0.0
	var rates []float64
	backoffs := 0
	for i := 0; i < 2000; i++ {
		now += s.SRTT()
		// Ideal feedback: if rate exceeds capacity, next step sees a loss.
		if s.Rate() > capacity {
			q := s.OnSend(now)
			s.OnSend(now) // the packet after the hole
			s.OnSend(now)
			s.OnSend(now)
			hole := q + 0 // lose the first of the burst
			_ = hole
			// ACK the three later packets to expose the hole.
			s.OnAck(now+0.04, q+1)
			s.OnAck(now+0.04, q+2)
			if b := s.OnAck(now+0.04, q+3); b != nil {
				backoffs++
			}
			now += 0.05
		} else {
			s.Step(now)
		}
		rates = append(rates, s.Rate())
	}
	if backoffs < 10 {
		t.Fatalf("only %d backoffs in 2000 iterations; no sawtooth", backoffs)
	}
	// The rate should spend its life in a band around capacity.
	max := 0.0
	for _, r := range rates[len(rates)/2:] {
		if r > max {
			max = r
		}
	}
	if max > capacity*1.5 || max < capacity*0.7 {
		t.Fatalf("sawtooth peak %v not near capacity %v", max, capacity)
	}
}

func TestReorderingWithinGapTolerated(t *testing.T) {
	s := newTestSender()
	var seqs []int64
	for i := 0; i < 6; i++ {
		seqs = append(seqs, s.OnSend(float64(i)*0.01))
	}
	// Acks arrive reordered but every packet arrives; the reorder gap
	// must prevent any backoff.
	order := []int64{1, 0, 3, 2, 5, 4}
	for _, q := range order {
		if b := s.OnAck(0.1, q); b != nil {
			t.Fatalf("reordering within gap caused backoff at seq %d", q)
		}
	}
	if c := s.Counters(); c.Backoffs != 0 || c.Lost != 0 {
		t.Fatalf("backoffs=%d lost=%d after pure reordering", c.Backoffs, c.Lost)
	}
}

func TestDuplicateAckHarmless(t *testing.T) {
	s := newTestSender()
	q := s.OnSend(0)
	s.OnAck(0.04, q)
	acked := s.Counters().Acked
	s.OnAck(0.05, q) // duplicate
	if s.Counters().Acked != acked {
		t.Fatal("duplicate ack double-counted")
	}
	if s.Counters().Backoffs != 0 {
		t.Fatal("duplicate ack caused backoff")
	}
}

// An ACK from the wire for a sequence never sent is ignored, whether or
// not anything is outstanding. It must not raise the highest-ACK mark:
// that would put the whole window beyond the reorder gap, declare every
// outstanding packet lost and halve the rate.
func TestAckForUnknownSeqIgnored(t *testing.T) {
	for _, sent := range []int{0, 5} {
		for _, seq := range []int64{int64(sent), 999, -1} {
			s := newTestSender()
			for i := 0; i < sent; i++ {
				s.OnSend(float64(i) * 0.01)
			}
			r0 := s.Rate()
			if b := s.OnAck(0.06, seq); b != nil {
				t.Fatalf("%d sent, ack for never-sent seq %d: backoff %+v", sent, seq, *b)
			}
			if c := s.Counters(); s.Outstanding() != sent || c.Lost != 0 || c.Acked != 0 || c.Backoffs != 0 || s.Rate() != r0 {
				t.Fatalf("%d sent, ack for never-sent seq %d: outstanding=%d lost=%d acked=%d backoffs=%d rate=%v (was %v)",
					sent, seq, s.Outstanding(), c.Lost, c.Acked, c.Backoffs, s.Rate(), r0)
			}
			// The window still works: the real ACKs all count.
			for q := int64(0); q < int64(sent); q++ {
				if b := s.OnAck(0.07, q); b != nil {
					t.Fatalf("in-order ack %d after the bogus one: backoff %+v", q, *b)
				}
			}
			if acked := s.Counters().Acked; acked != int64(sent) || s.Outstanding() != 0 {
				t.Fatalf("acked=%d outstanding=%d after acking all %d", acked, s.Outstanding(), sent)
			}
		}
	}
}

// TestAllocFreeSteadyState: once the window's ring and the lost-list
// buffer have reached their sizes, sending, acknowledging, stepping and
// a loss episode with its backoff allocate nothing.
func TestAllocFreeSteadyState(t *testing.T) {
	s := newTestSender()
	now := 0.0
	var backoffs int64
	cycle := func() {
		// Twenty packets of which two are lost, ACKs 40 ms behind.
		first := s.OnSend(now)
		for i := 1; i < 20; i++ {
			now += 0.002
			s.OnSend(now)
		}
		for q := first; q < first+20; q++ {
			if q == first+4 || q == first+5 {
				continue
			}
			if b := s.OnAck(now+0.04, q); b != nil {
				backoffs += int64(len(b.LostSeqs))
			}
		}
		now += 0.1
		s.Step(now)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	before := backoffs
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady send/ack/step with a loss episode allocates %.1f per cycle, want 0", avg)
	}
	if backoffs == before {
		t.Fatal("no backoff in the measured cycles: loss path not exercised")
	}
}

func TestConservativeSlopeAtMostInstantaneous(t *testing.T) {
	s := newTestSender()
	// Feed oscillating RTTs: the peak envelope must keep the
	// conservative slope at or below the instantaneous one.
	now := 0.0
	for i := 0; i < 300; i++ {
		rtt := 0.04 + 0.06*float64(i%10)/10
		q := s.OnSend(now)
		s.OnAck(now+rtt, q)
		now += 0.01
		if inst := 512 / (s.SRTT() * s.SRTT()); s.ConservativeSlope() > inst+1e-9 {
			t.Fatalf("conservative slope %v exceeds instantaneous %v", s.ConservativeSlope(), inst)
		}
	}
}
