package transport

import (
	"testing"

	"qav/internal/rap"
)

// drive feeds identical synthetic traffic — paced sends, delayed ACKs
// with jitter, random drops, periodic steps — to two RAP instances (one
// direct rap.Sender, one behind the adapter) and fails on the first
// decision that differs bitwise. This is the in-repo leg of the
// RAP-behind-interface differential: the adapter must be a zero-logic
// shim, so every rate, gap, and backoff must match the reference sender
// exactly, losses and timeouts included.
func TestRAPAdapterTransmitDecisionIdentical(t *testing.T) {
	cfg := rap.Config{PacketSize: 512, InitialRTT: 0.05, InitialRate: 20_000}
	snd := rap.NewSender(cfg)
	tr := NewRAP(cfg)

	// xorshift: deterministic drop/jitter decisions, no global rand.
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	same := func(now float64, what string) {
		t.Helper()
		if snd.Rate() != tr.Rate() || snd.IPG() != tr.IPG() ||
			snd.SRTT() != tr.SRTT() || snd.ConservativeSlope() != tr.ConservativeSlope() {
			t.Fatalf("t=%.4f after %s: sender (rate=%v ipg=%v srtt=%v slope=%v) != adapter (rate=%v ipg=%v srtt=%v slope=%v)",
				now, what,
				snd.Rate(), snd.IPG(), snd.SRTT(), snd.ConservativeSlope(),
				tr.Rate(), tr.IPG(), tr.SRTT(), tr.ConservativeSlope())
		}
	}
	sameBackoff := func(now float64, what string, a *rap.Backoff, b *Backoff) {
		t.Helper()
		if (a == nil) != (b == nil) {
			t.Fatalf("t=%.4f %s: backoff presence differs (sender %v, adapter %v)", now, what, a, b)
		}
		if a == nil {
			return
		}
		if a.Time != b.Time || a.OldRate != b.OldRate || a.NewRate != b.NewRate || len(a.LostSeqs) != len(b.LostSeqs) {
			t.Fatalf("t=%.4f %s: backoff differs: sender %+v adapter %+v", now, what, *a, *b)
		}
		for i := range a.LostSeqs {
			if a.LostSeqs[i] != b.LostSeqs[i] {
				t.Fatalf("t=%.4f %s: lost lists differ: %v vs %v", now, what, a.LostSeqs, b.LostSeqs)
			}
		}
	}

	type ackEv struct {
		seq int64
		due float64
	}
	var pending []ackEv
	now := 0.0
	nextStep := snd.StepInterval()
	for i := 0; i < 30_000; i++ {
		now += snd.IPG()
		s1, s2 := snd.OnSend(now), tr.OnSend(now)
		if s1 != s2 {
			t.Fatalf("t=%.4f: send seq differs: %d vs %d", now, s1, s2)
		}
		same(now, "OnSend")
		r := next()
		if r%100 >= 8 { // 8% drop rate; enough for regular loss clusters
			jitter := float64(r%1000) / 1e5 // up to 10ms
			pending = append(pending, ackEv{seq: s1, due: now + 0.05 + jitter})
		}
		for len(pending) > 0 && pending[0].due <= now {
			ev := pending[0]
			pending = pending[1:]
			b1 := snd.OnAck(ev.due, ev.seq)
			b2 := tr.OnAck(ev.due, ev.seq)
			sameBackoff(ev.due, "OnAck", b1, b2)
			same(ev.due, "OnAck")
		}
		for now >= nextStep {
			b1 := snd.Step(nextStep)
			b2 := tr.Step(nextStep)
			sameBackoff(nextStep, "Step", b1, b2)
			same(nextStep, "Step")
			if snd.StepInterval() != tr.StepInterval() {
				t.Fatalf("t=%.4f: step interval differs", nextStep)
			}
			nextStep += snd.StepInterval()
		}
	}

	c := tr.Counters()
	if c.Sent != snd.Sent || c.Acked != snd.Acked || c.Lost != snd.Lost ||
		c.Backoffs != snd.Backoffs || c.Timeouts != snd.TimeoutEv {
		t.Fatalf("counters differ: adapter %+v, sender sent=%d acked=%d lost=%d backoffs=%d timeouts=%d",
			c, snd.Sent, snd.Acked, snd.Lost, snd.Backoffs, snd.TimeoutEv)
	}
	if c.Sent == 0 || c.Lost == 0 || c.Backoffs == 0 {
		t.Fatalf("differential is vacuous: %+v (need traffic, losses, and backoffs)", c)
	}
	if tr.Kind() != KindRAP {
		t.Fatalf("Kind() = %q, want rap", tr.Kind())
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", KindRAP, false},
		{"rap", KindRAP, false},
		{"delay", KindDelay, false},
		{"greedy", KindGreedy, false},
		{"tcp", "", true},
	} {
		got, err := ParseKind(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseKind(%q) = (%q, %v), want (%q, err=%v)", tc.in, got, err, tc.want, tc.err)
		}
	}
}
