package sim

import (
	"math"
	"testing"
)

func TestLinkSerializationAndDelay(t *testing.T) {
	e := NewEngine()
	q := NewDropTail(1 << 20)
	l := NewLink(e, q, 1000 /* B/s */, 0.05)

	var arrivals []float64
	dst := ReceiverFunc(func(p *Packet) { arrivals = append(arrivals, e.Now()) })

	// Two 100-byte packets offered back to back at t=0: the first arrives
	// at 0.1s tx + 0.05s prop = 0.15; the second finishes serialization at
	// 0.2 and arrives at 0.25.
	p1 := mkPkt(1, 100)
	p1.Dst = dst
	p2 := mkPkt(2, 100)
	p2.Dst = dst
	l.Offer(p1)
	l.Offer(p2)
	e.Run()

	want := []float64{0.15, 0.25}
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	for i := range want {
		if math.Abs(arrivals[i]-want[i]) > 1e-9 {
			t.Fatalf("arrival %d at %v, want %v", i, arrivals[i], want[i])
		}
	}
	if l.TxPackets != 2 || l.TxBytes != 200 {
		t.Fatalf("tx counters %d pkts / %d bytes, want 2/200", l.TxPackets, l.TxBytes)
	}
}

func TestLinkThroughputMatchesRate(t *testing.T) {
	e := NewEngine()
	q := NewDropTail(1 << 20)
	const rate = 12500.0 // 100 Kb/s
	l := NewLink(e, q, rate, 0.01)

	received := 0
	dst := ReceiverFunc(func(p *Packet) { received += p.Size })

	// Offer far more than the link can carry in 10 s; verify goodput.
	for i := 0; i < 1000; i++ {
		p := mkPkt(int64(i), 500)
		p.Dst = dst
		l.Offer(p)
	}
	e.RunUntil(10.0)
	got := float64(received) / 10.0
	if math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("throughput %.0f B/s, want ~%.0f", got, rate)
	}
}

func TestLinkIdleRestart(t *testing.T) {
	e := NewEngine()
	q := NewDropTail(1 << 20)
	l := NewLink(e, q, 1000, 0)
	var times []float64
	dst := ReceiverFunc(func(p *Packet) { times = append(times, e.Now()) })

	p1 := mkPkt(1, 100)
	p1.Dst = dst
	l.Offer(p1)
	// Second packet offered long after the link went idle again.
	e.At(5.0, func() {
		p2 := mkPkt(2, 100)
		p2.Dst = dst
		l.Offer(p2)
	})
	e.Run()
	if len(times) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(times))
	}
	if math.Abs(times[1]-5.1) > 1e-9 {
		t.Fatalf("second delivery at %v, want 5.1", times[1])
	}
}

// A link puts two delay lines in the engine's merge, its wake and its
// deliveries, and nothing else.
func TestLinkOwnsWakeAndDeliveryLines(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, NewDropTail(600), 30_000, 0.01)
	if len(e.lines) != 2 {
		t.Fatalf("a link holds %d lines, want its wake and its deliveries", len(e.lines))
	}
	if e.lines[0] != l.wake || e.lines[1] != l.out {
		t.Fatal("the link's lines are not its wake and its deliveries")
	}
}

func TestDumbbellRTT(t *testing.T) {
	e := NewEngine()
	d := NewDumbbell(e, DumbbellConfig{
		Rate:        100000,
		Delay:       0.010,
		AccessDelay: 0.005,
		QueueBytes:  1 << 16,
	})
	if math.Abs(d.BaseRTT()-0.030) > 1e-12 {
		t.Fatalf("BaseRTT = %v, want 0.030", d.BaseRTT())
	}

	var dataAt, ackAt float64
	sink := ReceiverFunc(func(p *Packet) {
		dataAt = e.Now()
		ack := &Packet{Kind: Ack, AckSeq: p.Seq, Size: 40}
		d.SendAck(ack, ReceiverFunc(func(p *Packet) { ackAt = e.Now() }))
	})
	p := mkPkt(7, 1000)
	p.SendTime = e.Now()
	d.SendData(p, sink)
	e.Run()

	// data path: 5ms access + 10ms serialization (1000B @ 100kB/s) + 10ms prop
	if math.Abs(dataAt-0.025) > 1e-9 {
		t.Fatalf("data arrival %v, want 0.025", dataAt)
	}
	// ack path: + 15ms reverse
	if math.Abs(ackAt-0.040) > 1e-9 {
		t.Fatalf("ack arrival %v, want 0.040", ackAt)
	}
}

func TestDumbbellSharedQueueDropsOverload(t *testing.T) {
	e := NewEngine()
	d := NewDumbbell(e, DumbbellConfig{
		Rate: 1000, Delay: 0.01, AccessDelay: 0.001, QueueBytes: 500,
	})
	got := 0
	sink := ReceiverFunc(func(p *Packet) { got++ })
	for i := 0; i < 100; i++ {
		d.SendData(mkPkt(int64(i), 100), sink)
	}
	e.Run()
	if d.Q.Drops() == 0 {
		t.Fatal("no drops despite 20x overload of a tiny queue")
	}
	if got+int(d.Q.Drops()) != 100 {
		t.Fatalf("delivered %d + dropped %d != 100", got, d.Q.Drops())
	}
}

func TestDumbbellInterleavesFlows(t *testing.T) {
	e := NewEngine()
	d := NewDumbbell(e, DumbbellConfig{
		Rate: 10_000, Delay: 0.005, AccessDelay: 0.001, QueueBytes: 1 << 16,
	})
	got := map[int]int{}
	sink := ReceiverFunc(func(p *Packet) { got[p.FlowID]++ })
	// Two flows offer equal load below capacity: both delivered fully.
	for i := 0; i < 50; i++ {
		d.SendData(&Packet{FlowID: 1, Seq: int64(i), Size: 100}, sink)
		d.SendData(&Packet{FlowID: 2, Seq: int64(i), Size: 100}, sink)
	}
	e.Run()
	if got[1] != 50 || got[2] != 50 {
		t.Fatalf("deliveries %v, want 50 each", got)
	}
}

func TestRunUntilWithSelfFeedingStream(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		e.After(0.001, tick) // infinite event stream
	}
	e.At(0, tick)
	e.RunUntil(1.0)
	if n < 999 || n > 1002 {
		t.Fatalf("ran %d ticks in 1s at 1ms, want ~1000", n)
	}
	if e.Now() != 1.0 {
		t.Fatalf("Now() = %v, want 1.0", e.Now())
	}
}
