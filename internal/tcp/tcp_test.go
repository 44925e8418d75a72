package tcp

import (
	"math"
	"testing"

	"qav/internal/sim"
)

func runTCP(t *testing.T, rate float64, queueBytes int, dur float64, n int) []*Source {
	t.Helper()
	eng := sim.NewEngine()
	net := sim.NewDumbbell(eng, sim.DumbbellConfig{
		Rate: rate, Delay: 0.01, AccessDelay: 0.005, QueueBytes: queueBytes,
	})
	var srcs []*Source
	for i := 0; i < n; i++ {
		srcs = append(srcs, NewSource(eng, net, Config{
			FlowID: i, PacketSize: 512, InitialRTT: net.BaseRTT(), Start: float64(i) * 0.05,
		}))
	}
	eng.RunUntil(dur)
	return srcs
}

func TestSingleFlowFillsPipe(t *testing.T) {
	const rate = 50_000.0
	srcs := runTCP(t, rate, 16*512, 30, 1)
	goodput := float64(srcs[0].GoodputBytes()) / 30
	if goodput < 0.7*rate {
		t.Fatalf("single TCP flow goodput %.0f < 70%% of %v", goodput, rate)
	}
	if goodput > 1.01*rate {
		t.Fatalf("goodput %.0f exceeds link rate — accounting bug", goodput)
	}
}

func TestLossRecoveryWithoutExcessTimeouts(t *testing.T) {
	srcs := runTCP(t, 50_000, 16*512, 30, 1)
	s := srcs[0]
	if s.FastRecover == 0 {
		t.Fatal("no fast recovery episodes despite droptail losses")
	}
	if s.Timeouts > s.FastRecover {
		t.Fatalf("timeouts (%d) exceed fast recoveries (%d): SACK recovery broken", s.Timeouts, s.FastRecover)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	srcs := runTCP(t, 50_000, 24*512, 40, 2)
	g0 := float64(srcs[0].GoodputBytes())
	g1 := float64(srcs[1].GoodputBytes())
	ratio := math.Max(g0, g1) / math.Min(g0, g1)
	if ratio > 2.0 {
		t.Fatalf("TCP-TCP unfairness %0.2f:1 (g0=%.0f g1=%.0f)", ratio, g0, g1)
	}
	total := (g0 + g1) / 40
	if total < 0.7*50_000 {
		t.Fatalf("aggregate goodput %.0f underutilizes the link", total)
	}
}

func TestRetransmissionsDeliverEverything(t *testing.T) {
	// With a tiny queue, losses are plentiful; the receiver's cumulative
	// ack must still advance past a large sequence (reliability).
	srcs := runTCP(t, 30_000, 6*512, 30, 1)
	s := srcs[0]
	if s.RetransPkts == 0 {
		t.Fatal("no retransmissions despite a 6-packet queue")
	}
	wantPkts := int64(math.Floor(0.5 * 30_000 * 30 / 512))
	if s.AckedPkts < wantPkts {
		t.Fatalf("acked %d packets, want >= %d", s.AckedPkts, wantPkts)
	}
}

func TestCwndSanity(t *testing.T) {
	srcs := runTCP(t, 50_000, 16*512, 20, 1)
	cw := srcs[0].Cwnd()
	if cw < 1 {
		t.Fatalf("cwnd %v fell below 1", cw)
	}
	// BDP is ~3 packets + 16 queue: cwnd must stay in a sane band.
	if cw > 200 {
		t.Fatalf("cwnd %v exploded", cw)
	}
}

func TestMaxCwndCap(t *testing.T) {
	eng := sim.NewEngine()
	net := sim.NewDumbbell(eng, sim.DumbbellConfig{
		Rate: 1e6, Delay: 0.01, AccessDelay: 0.005, QueueBytes: 1 << 20,
	})
	s := NewSource(eng, net, Config{PacketSize: 512, InitialRTT: net.BaseRTT(), MaxCwnd: 4})
	eng.RunUntil(10)
	// Window capped at 4 packets: goodput is bounded by 4 pkts per RTT.
	rtt := net.BaseRTT()
	bound := 4 * 512 / rtt * 10 * 1.3
	if float64(s.GoodputBytes()) > bound {
		t.Fatalf("goodput %d exceeds MaxCwnd bound %.0f", s.GoodputBytes(), bound)
	}
}

// eachBoardKind runs f against the map reference and the windowed
// receive board.
func eachBoardKind(t *testing.T, f func(t *testing.T, b recvBoard)) {
	t.Helper()
	t.Run("map", func(t *testing.T) { f(t, newMapRecvBoard()) })
	t.Run("windowed", func(t *testing.T) { f(t, newWindowedRecvBoard()) })
}

func TestSackBlocksWellFormed(t *testing.T) {
	eachBoardKind(t, func(t *testing.T, b recvBoard) {
		for _, seq := range []int64{5, 6, 9, 12, 13} {
			b.add(seq)
		}
		blocks := b.appendSack(nil)
		if len(blocks) != 3 {
			t.Fatalf("got %d blocks, want 3: %+v", len(blocks), blocks)
		}
		for _, blk := range blocks {
			if blk.End <= blk.Start {
				t.Fatalf("malformed block %+v", blk)
			}
		}
		// Blocks must cover {5,6}, {9}, {12,13}.
		want := []sim.SackBlock{{Start: 5, End: 7}, {Start: 9, End: 10}, {Start: 12, End: 14}}
		for i, blk := range blocks {
			if blk != want[i] {
				t.Fatalf("block %d = %+v, want %+v", i, blk, want[i])
			}
		}
	})
}

func TestSackBlocksCapAtThree(t *testing.T) {
	eachBoardKind(t, func(t *testing.T, b recvBoard) {
		for _, seq := range []int64{1, 3, 5, 7, 9} {
			b.add(seq)
		}
		blocks := b.appendSack(nil)
		if len(blocks) != 3 {
			t.Fatalf("got %d blocks, want cap of 3", len(blocks))
		}
		// The highest blocks are kept.
		if blocks[len(blocks)-1].Start != 9 {
			t.Fatalf("highest block missing: %+v", blocks)
		}
	})
}
