package sim

import (
	"testing"
)

// recvEvent is one observation at a sink: virtual time plus sequence.
type recvEvent struct {
	t   float64
	seq int64
}

// diffFlow is a minimal acked sender/sink pair for differential tests:
// it sends fixed-size packets on a fixed inter-packet gap and logs the
// exact (time, seq) of every data delivery and every ack return.
type diffFlow struct {
	eng  *Engine
	net  Network
	id   int
	size int
	ipg  float64
	stop float64
	seq  int64

	recvs []recvEvent
	acks  []recvEvent

	sendFn   func()
	dataSink Receiver
	ackSink  Receiver
}

func newDiffFlow(eng *Engine, net Network, id int, ipg, start, stop float64) *diffFlow {
	f := &diffFlow{eng: eng, net: net, id: id, size: 300, ipg: ipg, stop: stop}
	f.dataSink = ReceiverFunc(func(p *Packet) {
		f.recvs = append(f.recvs, recvEvent{eng.Now(), p.Seq})
		ack := eng.Pool().Get()
		ack.FlowID, ack.Kind, ack.Size, ack.AckSeq = f.id, Ack, 40, p.Seq
		net.SendAck(ack, f.ackSink)
	})
	f.ackSink = ReceiverFunc(func(p *Packet) {
		f.acks = append(f.acks, recvEvent{eng.Now(), p.AckSeq})
	})
	f.sendFn = func() {
		now := eng.Now()
		p := eng.Pool().Get()
		p.FlowID, p.Seq, p.Size = f.id, f.seq, f.size
		p.Kind, p.SendTime = Data, now
		f.seq++
		net.SendData(p, f.dataSink)
		if now+f.ipg < f.stop {
			eng.After(f.ipg, f.sendFn)
		}
	}
	eng.At(start, f.sendFn)
	return f
}

// shardCase describes one differential scenario: flows with given
// start offsets and gaps, run serially and at several shard counts.
type shardCase struct {
	name     string
	cfg      DumbbellConfig
	shards   []int // flow-shard counts to compare against serial
	duration float64
	flows    []struct{ ipg, start, stop float64 }
}

func runSerialCase(c shardCase) ([]*diffFlow, *Link) {
	eng := NewEngine()
	net := NewDumbbell(eng, c.cfg)
	flows := make([]*diffFlow, len(c.flows))
	for i, fc := range c.flows {
		flows[i] = newDiffFlow(eng, net, i, fc.ipg, fc.start, fc.stop)
	}
	eng.RunUntil(c.duration)
	return flows, net.Bneck
}

func runShardedCase(c shardCase, flowShards int) ([]*diffFlow, *Link) {
	d := NewShardedDumbbell(flowShards, c.cfg, nil)
	flows := make([]*diffFlow, len(c.flows))
	for i, fc := range c.flows {
		s := i % flowShards
		d.AssignFlow(i, s)
		flows[i] = newDiffFlow(d.FlowEngine(s), d.FlowNet(s), i, fc.ipg, fc.start, fc.stop)
	}
	d.Run(c.duration, nil)
	return flows, d.Bneck()
}

func checkCase(t *testing.T, c shardCase) {
	t.Helper()
	want, wantLink := runSerialCase(c)
	for _, n := range c.shards {
		got, gotLink := runShardedCase(c, n)
		for i := range want {
			if len(got[i].recvs) != len(want[i].recvs) {
				t.Fatalf("shards=%d flow %d: %d deliveries, serial %d",
					n, i, len(got[i].recvs), len(want[i].recvs))
			}
			for j := range want[i].recvs {
				if got[i].recvs[j] != want[i].recvs[j] {
					t.Fatalf("shards=%d flow %d delivery %d: got %+v, serial %+v",
						n, i, j, got[i].recvs[j], want[i].recvs[j])
				}
			}
			if len(got[i].acks) != len(want[i].acks) {
				t.Fatalf("shards=%d flow %d: %d acks, serial %d",
					n, i, len(got[i].acks), len(want[i].acks))
			}
			for j := range want[i].acks {
				if got[i].acks[j] != want[i].acks[j] {
					t.Fatalf("shards=%d flow %d ack %d: got %+v, serial %+v",
						n, i, j, got[i].acks[j], want[i].acks[j])
				}
			}
		}
		if gotLink.TxPackets != wantLink.TxPackets || gotLink.TxBytes != wantLink.TxBytes {
			t.Fatalf("shards=%d: link tx %d pkts/%d bytes, serial %d/%d",
				n, gotLink.TxPackets, gotLink.TxBytes, wantLink.TxPackets, wantLink.TxBytes)
		}
	}
}

// TestShardedDumbbellDifferential drives overlapping acked flows
// through a congested bottleneck and requires every delivery and ack
// instant to match the serial topology exactly, at several shard
// counts — including more shards than flows (empty shards).
func TestShardedDumbbellDifferential(t *testing.T) {
	cfg := DumbbellConfig{
		Rate:        50_000,
		Delay:       0.010,
		AccessDelay: 0.005,
		QueueBytes:  4 * 300, // tiny: force drops
	}
	c := shardCase{
		cfg:      cfg,
		shards:   []int{1, 2, 3, 7}, // 7 > 5 flows: some shards stay empty
		duration: 3,
		flows: []struct{ ipg, start, stop float64 }{
			{0.013, 0, 3},
			{0.017, 0, 3},
			{0.011, 0.25, 3},
			{0.019, 0.25, 3}, // same start as flow 2: flow-ID tie order
			{0.023, 1.5037, 2.5},
		},
	}
	checkCase(t, c)
}

// TestShardedHorizonArrival pins the lookahead edge case: with the
// send gap equal to the lookahead and senders starting at 0, packets
// leave at exactly k*L and arrive at the bottleneck at exactly the
// window horizons. RunBelow must leave those arrivals to the next
// window, after the barrier has delivered them, or they are lost or
// double-run.
func TestShardedHorizonArrival(t *testing.T) {
	cfg := DumbbellConfig{
		Rate:        100_000,
		Delay:       0.010,
		AccessDelay: 0.005, // lookahead L = 0.005
		QueueBytes:  20 * 300,
	}
	c := shardCase{
		cfg:      cfg,
		shards:   []int{1, 2},
		duration: 1,
		// ipg == L: every arrival lands exactly on a horizon. The
		// second flow is offset by half a lookahead to interleave.
		flows: []struct{ ipg, start, stop float64 }{
			{0.005, 0, 1},
			{0.005, 0.0025, 1},
		},
	}
	checkCase(t, c)
}

// TestShardedDurationBoundary runs a duration chosen so deliveries
// land exactly on it (start 0, ipg 0.005, access 0.005, tx 0.003,
// delay 0.010: arrivals at source k*0.005+0.005, transmit-complete
// +0.003, delivered +0.010). The final-window drain must run arrivals
// dated exactly at the duration, as the serial RunUntil does.
func TestShardedDurationBoundary(t *testing.T) {
	cfg := DumbbellConfig{
		Rate:        100_000,
		Delay:       0.010,
		AccessDelay: 0.005,
		QueueBytes:  20 * 300,
	}
	c := shardCase{
		cfg:      cfg,
		shards:   []int{1, 3},
		duration: 0.518, // 0.5 + access 0.005 + tx 0.003 + delay 0.010
		flows: []struct{ ipg, start, stop float64 }{
			{0.005, 0, 0.518},
		},
	}
	checkCase(t, c)
}

// TestRunBelowExcludesHorizon verifies the windowed-execution
// primitive directly: an event exactly at the horizon must stay queued
// and the clock must not advance past executed events.
func TestRunBelowExcludesHorizon(t *testing.T) {
	eng := NewEngine()
	var ran []float64
	for _, at := range []float64{0.1, 0.2, 0.3} {
		at := at
		eng.At(at, func() { ran = append(ran, at) })
	}
	eng.RunBelow(0.3)
	if len(ran) != 2 || ran[0] != 0.1 || ran[1] != 0.2 {
		t.Fatalf("RunBelow(0.3) ran %v, want [0.1 0.2]", ran)
	}
	if eng.Now() != 0.2 {
		t.Fatalf("clock at %v after RunBelow, want 0.2 (last executed event)", eng.Now())
	}
	eng.RunBelow(0.301)
	if len(ran) != 3 {
		t.Fatalf("event at the old horizon did not run in the next window: %v", ran)
	}
}

// TestShardedPoolOwnership checks the cross-shard packet return path:
// with a queue small enough to drop steadily, every packet a flow shard
// allocates must come back to that shard's pool (drops via the return
// boxes, deliveries after Recv), so Gets and Puts balance up to the
// packets parked in the final beyond-duration events.
func TestShardedPoolOwnership(t *testing.T) {
	cfg := DumbbellConfig{
		Rate:        30_000,
		Delay:       0.010,
		AccessDelay: 0.005,
		QueueBytes:  2 * 300,
	}
	d := NewShardedDumbbell(2, cfg, nil)
	for i := 0; i < 2; i++ {
		d.AssignFlow(i, i)
		newDiffFlow(d.FlowEngine(i), d.FlowNet(i), i, 0.007, 0, 10)
	}
	d.Run(2, nil)
	if d.Queue().Drops() == 0 {
		t.Fatal("case produced no drops; queue sizing is wrong for this test")
	}
	for i := 0; i < 2; i++ {
		pool := d.FlowEngine(i).Pool()
		outstanding := pool.Gets - pool.Puts
		// In-flight packets at cutoff (events dated past the duration)
		// are bounded by what one RTT plus the queue can hold; far
		// below the thousands of packets exchanged. A leak through the
		// wrong pool would grow with the run instead.
		if outstanding < 0 || outstanding > 64 {
			t.Fatalf("shard %d pool: %d gets, %d puts (%d outstanding)",
				i, pool.Gets, pool.Puts, outstanding)
		}
	}
}

// The sharded bottleneck's link delivers through the mailboxes, so
// SetOut takes the default delivery line off the engine: the merge
// scans the link's wake and the arrivals, nothing else.
func TestSetOutDropsDeliveryLine(t *testing.T) {
	e := NewEngine()
	NewLink(e, NewDropTail(600), 30_000, 0.01)
	if len(e.lines) != 2 {
		t.Fatalf("a link holds %d lines, want its wake and its deliveries", len(e.lines))
	}
	d := NewShardedDumbbell(2, DumbbellConfig{Rate: 30_000, Delay: 0.010, AccessDelay: 0.005, QueueBytes: 600}, nil)
	if got := d.bneck.lines; len(got) != 2 || got[0] != d.link.wake || got[1] != d.arrivals {
		t.Fatalf("the sharded bottleneck holds %d lines, want the link's wake and the arrivals", len(got))
	}
}
