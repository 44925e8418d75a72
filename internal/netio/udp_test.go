package netio

import (
	"context"
	"sync"
	"testing"
	"time"

	"qav/internal/core"
	"qav/internal/transport"
	"qav/internal/video"
)

// testServer serves one viewer at a time: a MultiServer capped at one
// client on one shard, already running (testMultiServer stops it).
func testServer(t *testing.T, c float64, maxRate float64) *MultiServer {
	t.Helper()
	srv, _ := testMultiServer(t, 1, MultiConfig{
		QA:         core.Params{C: c, Kmax: 2, MaxLayers: 6, StartupSec: 0.2},
		RAP:        transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: maxRate},
		MaxClients: 1,
	})
	return srv
}

// runStream streams to one client for dur and returns both sides' stats.
func runStream(t *testing.T, srv *MultiServer, dialAddr string, dur time.Duration) (MultiStats, ClientStats) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), dur+10*time.Second)
	defer cancel()
	cl, err := Dial(dialAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Stats and metrics snapshots race the stream: the race detector
	// run in CI checks the client's lock.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				cl.Stats()
				cl.Metrics().Snapshot()
			}
		}
	}()
	err = cl.Stream(ctx, dur)
	close(stop)
	<-stopped
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	return srv.Stats(), cl.Stats()
}

func TestUDPDirectStream(t *testing.T) {
	srv := testServer(t, 20_000, 200_000)
	ss, cs := runStream(t, srv, srv.Addr(), 2*time.Second)
	if cs.Packets == 0 {
		t.Fatal("client received nothing")
	}
	if ss.AckedPkts == 0 {
		t.Fatal("server saw no ACKs")
	}
	// Lossless loopback: nearly everything is acknowledged.
	if float64(ss.AckedPkts) < 0.8*float64(ss.SentPkts) {
		t.Fatalf("acked %d of %d sent", ss.AckedPkts, ss.SentPkts)
	}
	// With MaxRate 200 KB/s and C 20 KB/s, multiple layers must appear.
	if cs.LayerBytes(0) == 0 || cs.LayerBytes(1) == 0 {
		t.Fatalf("client layer bytes: %v", cs.ByLayer)
	}
}

func TestUDPAdaptsToPipeBandwidth(t *testing.T) {
	srv := testServer(t, 10_000, 0)
	pipe, err := NewPipe("127.0.0.1:0", srv.Addr(),
		PipeConfig{}, // acks upstream: clean
		PipeConfig{Rate: 60_000, Delay: 10 * time.Millisecond, QueueBytes: 8 << 10}, // data downstream
		1)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	ss, cs := runStream(t, srv, pipe.Addr(), 4*time.Second)
	if ss.Backoffs == 0 {
		t.Fatal("no backoffs despite a 60 KB/s shaper")
	}
	// Client goodput tracks the shaper: bounded above by it, and the
	// sender must keep it reasonably utilized despite oscillation.
	goodput := float64(cs.Bytes) / cs.LastArrival.Seconds()
	if goodput > 1.3*60_000 {
		t.Fatalf("goodput %.0f exceeds shaped rate", goodput)
	}
	if goodput < 0.25*60_000 {
		t.Fatalf("goodput %.0f badly underutilizes the 60 KB/s shaper", goodput)
	}
	// Layers adapt to ~6C max; must have reached at least 2 but never 6+.
	if cs.HighestLayer < 1 || cs.HighestLayer >= 6 {
		t.Fatalf("highest layer the client saw: %d", cs.HighestLayer)
	}
}

func TestUDPSurvivesRandomLoss(t *testing.T) {
	srv := testServer(t, 10_000, 100_000)
	pipe, err := NewPipe("127.0.0.1:0", srv.Addr(),
		PipeConfig{},
		PipeConfig{Loss: 0.02, Delay: 5 * time.Millisecond},
		7)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	ss, cs := runStream(t, srv, pipe.Addr(), 3*time.Second)
	if cs.Packets == 0 {
		t.Fatal("nothing received through lossy pipe")
	}
	if ss.Backoffs == 0 {
		t.Fatal("2% loss never triggered a backoff")
	}
	// Base layer keeps flowing.
	if cs.LayerBytes(0) == 0 {
		t.Fatal("base layer starved")
	}
}

func TestPipeLossRate(t *testing.T) {
	// A crude loss-rate check: fire 1000 packets through a 30% lossy
	// pipe at low rate and count arrivals.
	echo := listenUDPTB(t)
	defer echo.Close()
	var got int64
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 2048)
		for {
			echo.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			_, _, err := echo.ReadFromUDP(buf)
			if err != nil {
				select {
				case <-done:
					return
				default:
					continue
				}
			}
			mu.Lock()
			got++
			mu.Unlock()
		}
	}()

	pipe, err := NewPipe("127.0.0.1:0", echo.LocalAddr().String(),
		PipeConfig{Loss: 0.3}, PipeConfig{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	cl, err := Dial(pipe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	msg := make([]byte, ReqLen)
	EncodeReq(msg, Req{DurationMs: 1})
	const total = 1000
	for i := 0; i < total; i++ {
		cl.conn.Write(msg)
		// Pace the burst so neither socket buffer overflows: only the
		// pipe's 30% loss should drop packets.
		time.Sleep(200 * time.Microsecond)
	}
	time.Sleep(300 * time.Millisecond)
	close(done)
	mu.Lock()
	frac := float64(got) / total
	mu.Unlock()
	if frac < 0.55 || frac > 0.85 {
		t.Fatalf("delivered fraction %.2f through 30%% loss, want ~0.70", frac)
	}
	if up, _ := pipe.Drops(); up == 0 {
		t.Fatal("drop counter never incremented")
	}
}

func TestPipeDelay(t *testing.T) {
	echo := listenUDPTB(t)
	defer echo.Close()
	arrived := make(chan time.Time, 1)
	go func() {
		buf := make([]byte, 2048)
		echo.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, _, err := echo.ReadFromUDP(buf); err == nil {
			arrived <- time.Now()
		}
	}()

	pipe, err := NewPipe("127.0.0.1:0", echo.LocalAddr().String(),
		PipeConfig{Delay: 80 * time.Millisecond}, PipeConfig{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	cl, err := Dial(pipe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	msg := make([]byte, ReqLen)
	EncodeReq(msg, Req{DurationMs: 1})
	sent := time.Now()
	cl.conn.Write(msg)
	select {
	case at := <-arrived:
		d := at.Sub(sent)
		if d < 70*time.Millisecond || d > 300*time.Millisecond {
			t.Fatalf("one-way delay %v, want ~80ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived")
	}
}

func TestSelectiveRetransmissionRepairsBaseLayer(t *testing.T) {
	srv := testServer(t, 10_000, 120_000)
	// A lossy downstream path: base-layer holes appear and the client's
	// NACKs must get them repaired.
	pipe, err := NewPipe("127.0.0.1:0", srv.Addr(),
		PipeConfig{},
		PipeConfig{Loss: 0.05, Delay: 5 * time.Millisecond},
		11)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	cl, err := DialVideo(pipe.Addr(), video.Config{C: 10_000, MaxLayers: 6, StartupBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Stream(ctx, 5*time.Second); err != nil {
		t.Fatalf("client: %v", err)
	}

	cs := cl.Stats()
	ss := srv.Stats()
	if cs.NacksSent == 0 {
		t.Fatal("5% loss produced no NACKs")
	}
	if ss.Retransmits == 0 {
		t.Fatal("server never retransmitted despite NACKs")
	}
	t.Logf("server sent %d repairs; client: %d NACKs, %d holes repaired, %d duplicates",
		ss.Retransmits, cs.NacksSent, cs.Retransmits, cs.Duplicates)
	if cs.Retransmits == 0 {
		t.Fatal("no repaired holes observed at the client")
	}
	// The playout model ran: playback happened and quality integrated.
	if cs.Playback.PlayedSec < 2 {
		t.Fatalf("playout model played only %.2fs", cs.Playback.PlayedSec)
	}
	if cs.Playback.DecodableLayerSec <= 0 {
		t.Fatal("no decodable layer-seconds recorded")
	}
	// Repairs keep base-layer gap time small relative to played time.
	if gap := cs.Playback.LayerGapSec[0]; gap > 0.3*cs.Playback.PlayedSec {
		t.Fatalf("base layer gap %.2fs of %.2fs played despite retransmission",
			gap, cs.Playback.PlayedSec)
	}
}
