package transport

import "testing"

func TestBaseConfigDefaults(t *testing.T) {
	var c BaseConfig
	c.SetDefaults()
	if c.PacketSize != 512 || c.InitialRTT != 0.1 {
		t.Fatalf("defaults %+v", c)
	}
	if want := 2 * 512 / 0.1; c.InitialRate != want {
		t.Fatalf("InitialRate = %v, want %v (two packets per RTT)", c.InitialRate, want)
	}
}

func TestBaseReorderLosses(t *testing.T) {
	b := NewBase(BaseConfig{InitialRTT: 0.04})
	for i := 0; i < 5; i++ {
		b.OnSend(float64(i) * 0.01)
	}
	b.AckRTT(0.05, 0)
	b.AckRTT(0.09, 4) // acks 0 and 4; 1..3 outstanding, gap 3 exposes seq 1
	lost := b.ReorderLosses()
	if len(lost) != 1 || lost[0] != 1 {
		t.Fatalf("lost %v, want [1]", lost)
	}
	if b.Outstanding() != 2 {
		t.Fatalf("outstanding %d, want 2 (seqs 2,3 still within gap)", b.Outstanding())
	}
	if got := b.Counters(); got.Sent != 5 || got.Acked != 2 || got.Lost != 1 {
		t.Fatalf("counters %+v", got)
	}
}

func TestBaseDuplicateAckIgnored(t *testing.T) {
	b := NewBase(BaseConfig{InitialRTT: 0.04})
	seq := b.OnSend(0)
	if _, ok := b.AckRTT(0.04, seq); !ok {
		t.Fatal("first ack rejected")
	}
	if _, ok := b.AckRTT(0.05, seq); ok {
		t.Fatal("duplicate ack accepted")
	}
	if got := b.Counters(); got.Acked != 1 {
		t.Fatalf("acked %d, want 1", got.Acked)
	}
}

// TestBaseAckForNeverSentSeqIgnored: an ACK for a sequence outside
// [0, next) must not move the highest-ACK mark, or the reorder scan
// would declare the whole outstanding window lost.
func TestBaseAckForNeverSentSeqIgnored(t *testing.T) {
	for _, seq := range []int64{5, 999, -1} {
		b := NewBase(BaseConfig{InitialRTT: 0.04})
		for i := 0; i < 5; i++ {
			b.OnSend(float64(i) * 0.01)
		}
		if _, ok := b.AckRTT(0.06, seq); ok {
			t.Fatalf("ack for never-sent seq %d accepted", seq)
		}
		if lost := b.ReorderLosses(); len(lost) != 0 {
			t.Fatalf("ack for never-sent seq %d: lost %v", seq, lost)
		}
		if got := b.Counters(); b.Outstanding() != 5 || got.Acked != 0 || got.Lost != 0 {
			t.Fatalf("ack for never-sent seq %d: outstanding %d, counters %+v", seq, b.Outstanding(), got)
		}
	}
}

// TestBaseBackoffFence: decreases within one SRTT of the previous one
// belong to the same congestion episode and must be absorbed.
func TestBaseBackoffFence(t *testing.T) {
	b := NewBase(BaseConfig{InitialRTT: 0.04, InitialRate: 10_000})
	if ev := b.Backoff(1.0, 5_000, nil); ev == nil || ev.OldRate != 10_000 || ev.NewRate != 5_000 {
		t.Fatalf("first backoff %+v", ev)
	}
	if ev := b.Backoff(1.0+b.SRTT()/2, 2_500, nil); ev != nil {
		t.Fatalf("in-fence backoff applied: %+v", ev)
	}
	if b.Rate() != 5_000 {
		t.Fatalf("rate %.0f changed inside the fence", b.Rate())
	}
	if ev := b.Backoff(1.0+2*b.SRTT(), 2_500, nil); ev == nil {
		t.Fatal("post-fence backoff suppressed")
	}
	if got := b.Counters(); got.Backoffs != 2 {
		t.Fatalf("backoffs %d, want 2", got.Backoffs)
	}
}

func TestBaseRateClamp(t *testing.T) {
	b := NewBase(BaseConfig{PacketSize: 1000, InitialRate: 1_000, MaxRate: 2_000})
	b.SetRate(100)
	if b.Rate() != 500 {
		t.Fatalf("rate %.0f, want clamped to the floor of one packet per 2 s", b.Rate())
	}
	b.SetRate(10_000)
	if b.Rate() != 2_000 {
		t.Fatalf("rate %.0f, want clamped to MaxRate", b.Rate())
	}
}

func TestBaseTimeoutLosses(t *testing.T) {
	b := NewBase(BaseConfig{InitialRTT: 0.04})
	b.OnSend(0)
	b.OnSend(0.5)
	lost := b.TimeoutLosses(0.2) // RTO = 3×InitialRTT = 0.12: only seq 0 is stale
	if len(lost) != 1 || lost[0] != 0 {
		t.Fatalf("lost %v, want [0]", lost)
	}
	if got := b.Counters(); got.Timeouts != 1 || got.Lost != 1 {
		t.Fatalf("counters %+v", got)
	}
	if lost := b.TimeoutLosses(0.2); len(lost) != 0 {
		t.Fatalf("second sweep found %v", lost)
	}
}
