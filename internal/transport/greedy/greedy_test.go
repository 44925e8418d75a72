package greedy

import (
	"testing"

	"qav/internal/transport"
)

// TestSlowStartThenAdditive walks the controller through its whole
// lifecycle: multiplicative probe, first loss ends slow start with a
// ×beta cut, and later steps climb additively at increasePkts per SRTT.
func TestSlowStartThenAdditive(t *testing.T) {
	c := New(Config{Base: transport.BaseConfig{
		PacketSize: 512, InitialRTT: 0.04, InitialRate: 10_000,
	}})
	if !c.InSlowStart() {
		t.Fatal("controller should start in slow start")
	}

	// Loss-free steps multiply the rate by ssGrowth.
	now := 0.0
	ack := func() {
		seq := c.OnSend(now)
		if b := c.OnAck(now+0.04, seq); b != nil {
			t.Fatalf("clean ack produced backoff %+v", b)
		}
		now += c.IPG()
	}
	for step := 0; step < 3; step++ {
		before := c.Rate()
		ack()
		if b := c.Step(now); b != nil {
			t.Fatalf("clean step produced backoff %+v", b)
		}
		if got, want := c.Rate(), before*1.5; got != want {
			t.Fatalf("slow-start step %d: rate %.1f, want %.1f", step, got, want)
		}
	}

	// Drop one packet, then ack enough later ones to trip the reorder
	// gap: slow start ends with a ×0.7 cut.
	before := c.Rate()
	dropped := c.OnSend(now)
	var b *transport.Backoff
	for i := 0; i < 5 && b == nil; i++ {
		now += c.IPG()
		seq := c.OnSend(now)
		b = c.OnAck(now+0.04, seq)
	}
	if b == nil {
		t.Fatal("reorder gap never declared the dropped packet lost")
	}
	if len(b.LostSeqs) != 1 || b.LostSeqs[0] != dropped {
		t.Fatalf("lost %v, want [%d]", b.LostSeqs, dropped)
	}
	if got, want := b.NewRate, 0.7*before; got != want {
		t.Fatalf("post-loss rate %.1f, want %.1f", got, want)
	}
	if c.InSlowStart() {
		t.Fatal("loss did not end slow start")
	}

	// Post-slow-start steps climb additively: increasePkts·pkt/SRTT.
	now += c.SRTT() // clear the backoff fence
	before = c.Rate()
	if b := c.Step(now); b != nil {
		t.Fatalf("clean step produced backoff %+v", b)
	}
	want := before + 2*512/c.SRTT()
	if got := c.Rate(); got != want {
		t.Fatalf("additive step: rate %.2f, want %.2f", got, want)
	}

	if c.Kind() != transport.KindGreedy {
		t.Fatalf("Kind() = %q", c.Kind())
	}
	if got := c.Counters(); got.Lost != 1 || got.Backoffs != 1 {
		t.Fatalf("counters %+v, want one loss and one backoff", got)
	}
}

// TestTimeoutBacksOff: silence past the RTO must cut the rate via the
// timeout path even with no ACK clock to infer reorder losses from.
func TestTimeoutBacksOff(t *testing.T) {
	c := New(Config{Base: transport.BaseConfig{
		PacketSize: 512, InitialRTT: 0.04, InitialRate: 10_000,
	}})
	c.OnSend(0)
	before := c.Rate()
	b := c.Step(1.0) // far past RTO (3×InitialRTT)
	if b == nil {
		t.Fatal("timeout did not trigger a backoff")
	}
	if c.Rate() >= before {
		t.Fatalf("rate %.1f did not decrease on timeout", c.Rate())
	}
	if got := c.Counters(); got.Timeouts != 1 {
		t.Fatalf("counters %+v, want one timeout event", got)
	}
	if c.InSlowStart() {
		t.Fatal("timeout loss did not end slow start")
	}
}
