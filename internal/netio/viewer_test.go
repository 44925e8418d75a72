package netio

import (
	"context"
	"runtime"
	"testing"
	"time"

	"qav/internal/core"
	"qav/internal/transport"
	"qav/internal/video"
)

// TestViewerAllocFree: an in-order packet costs the viewer no
// allocation, with the playout model (interval sets merged in place)
// and without it (the load client's path).
func TestViewerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	for _, playout := range []bool{false, true} {
		var rx *video.Receiver
		if playout {
			var err error
			if rx, err = video.NewReceiver(video.Config{C: 10_000, MaxLayers: 4}); err != nil {
				t.Fatal(err)
			}
		}
		v := newViewer(rx)
		const pkt, layers = 512, 4
		var seq int64
		next := func() {
			layer := int64(seq % layers)
			v.OnData(float64(seq)*0.01, DataHeader{Seq: seq, Layer: uint8(layer), LayerOff: seq / layers * pkt}, pkt)
			seq++
		}
		for i := 0; i < 4*layers; i++ {
			next() // ByLayer reaches its length
		}
		if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
			t.Errorf("playout %v: %.2f allocs per in-order packet, want 0", playout, allocs)
		}
		if st := v.Stats(float64(seq) * 0.01); playout && st.Playback.PlayedSec == 0 {
			t.Errorf("playout model never played (%+v)", st.Playback)
		}
	}
}

// TestViewerHeapFlat streams a virtual hour through one playout viewer
// — four layers of 512-byte packets at a little over the consumption
// rate, base-layer losses repaired a few packets later, duplicates and
// reorders on every layer — and holds its heap flat from minute 10 to
// minute 60: what arrived is the receiver's merged intervals, nothing
// per packet.
func TestViewerHeapFlat(t *testing.T) {
	const pkt, layers, rate = 512, 4, 5_200 // bytes/s per layer
	rx, err := video.NewReceiver(video.Config{C: 5_000, MaxLayers: layers})
	if err != nil {
		t.Fatal(err)
	}
	v := newViewer(rx)
	gap := float64(pkt) / (rate * layers)
	heapAt := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var (
		sent      [layers]int64
		at10      uint64
		repairAt  int
		repairOff int64
		held      DataHeader
		holding   bool
	)
	for i := 0; float64(i)*gap < 3600; i++ {
		now := float64(i) * gap
		if at10 == 0 && now >= 600 {
			at10 = heapAt()
		}
		h := DataHeader{Seq: int64(i), Layer: uint8(i % layers)}
		if i > 0 && i == repairAt {
			h.Layer, h.LayerOff = 0, repairOff
		} else {
			h.LayerOff = sent[h.Layer]
			sent[h.Layer] += pkt
		}
		switch {
		case i%1000 == 0: // a base-layer loss, repaired 10 sends on
			repairAt, repairOff = i+10, h.LayerOff
			continue
		case i%97 == 0: // held back behind the next packet
			held, holding = h, true
			continue
		}
		v.OnData(now, h, pkt)
		if holding {
			v.OnData(now, held, pkt)
			holding = false
		}
		if i%89 == 0 { // duplicated
			v.OnData(now, h, pkt)
		}
	}
	growth := int64(heapAt()) - int64(at10)
	st := v.Stats(3600)
	t.Logf("heap in use grew %d B from minute 10 to 60; %d packets, %d repairs, %d duplicates, %d reorders, %.0f s played",
		growth, st.Packets, st.Retransmits, st.Duplicates, st.ReorderEvents, st.Playback.PlayedSec)
	if st.Retransmits == 0 || st.Duplicates == 0 || st.ReorderEvents == 0 || st.Playback.PlayedSec < 3000 {
		t.Fatal("the stream did not exercise repairs, duplicates, reorders and playback")
	}
	if growth >= 64<<10 {
		t.Errorf("heap in use grew %d B over 50 virtual minutes, want < 64 KiB", growth)
	}
	runtime.KeepAlive(v)
}

// TestClientStatsBeforeStream: asking a client for its stats before it
// streams must not move its playout clock, or playback never starts.
func TestClientStatsBeforeStream(t *testing.T) {
	cl, err := DialVideo("127.0.0.1:9", video.Config{C: 10_000, MaxLayers: 4, StartupBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Stats()
	for i := int64(0); i < 40; i++ {
		cl.onData(float64(i)*0.05, DataHeader{Seq: i, LayerOff: i * 512}, 512)
	}
	if pb := cl.Stats().Playback; pb.PlayedSec < 1 {
		t.Fatalf("played %.2f s of 2 s fed after an early Stats call", pb.PlayedSec)
	}
}

// TestLoadClientsTakeLargePackets: packets larger than a load client's
// initial read buffer grow it; they do not starve the client.
func TestLoadClientsTakeLargePackets(t *testing.T) {
	srv, _ := testMultiServer(t, 1, MultiConfig{
		QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: 6, StartupSec: 0.2},
		RAP: transport.RAPConfig{PacketSize: 3000, InitialRTT: 0.02, MaxRate: 60_000},
	})
	res, err := RunLoad(context.Background(), LoadConfig{
		Addr:     srv.Addr(),
		Clients:  2,
		Dur:      time.Second,
		Stagger:  100 * time.Millisecond,
		IdleExit: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Starved > 0 {
		t.Fatalf("%d of 2 clients starved on 3000-byte packets (server: %+v)", res.Starved, srv.Stats())
	}
	for i, c := range res.PerClient {
		if c.Packets < 5 || c.Bytes != c.Packets*3000 {
			t.Errorf("client %d: %d packets, %d bytes", i, c.Packets, c.Bytes)
		}
	}
}
