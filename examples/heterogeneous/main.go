// Heterogeneous clients: the paper's motivating scenario (§1.2) over
// real UDP sockets. One server streams the same layered content to
// clients behind very different emulated access links — a modem-class
// path, a DSL-class path, and a LAN-class path — and each receives the
// quality its bandwidth permits, from the same encoding, with no
// re-encoding and no per-client configuration.
//
//	go run ./examples/heterogeneous
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"qav"
)

func main() {
	paths := []struct {
		name string
		down qav.PipeConfig
	}{
		{"modem (8 KB/s, 100ms)", qav.PipeConfig{Rate: 8_000, Delay: 50 * time.Millisecond, QueueBytes: 4 << 10}},
		{"dsl (40 KB/s, 30ms)", qav.PipeConfig{Rate: 40_000, Delay: 15 * time.Millisecond, QueueBytes: 12 << 10}},
		{"lan (200 KB/s, 4ms)", qav.PipeConfig{Rate: 200_000, Delay: 2 * time.Millisecond, QueueBytes: 32 << 10}},
	}

	fmt.Println("heterogeneous: one layered server, three client access links (C = 4 KB/s per layer)")
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	srv, err := qav.NewServer(conn, qav.ServerConfig{
		QA:  qav.Params{C: 4_000, Kmax: 2, MaxLayers: 8, StartupSec: 0.3},
		RAP: qav.RAPConfig{PacketSize: 512, InitialRTT: 0.05},
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	go srv.Serve(ctx)

	// All three stream at once, each through its own pipe to the one server.
	stats := make([]qav.ClientStats, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		pipe, err := qav.NewPipe("127.0.0.1:0", srv.Addr(), qav.PipeConfig{}, path.down, int64(i)+1)
		if err != nil {
			log.Fatal(err)
		}
		defer pipe.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if stats[i], err = qav.DialStream(ctx, pipe.Addr(), 6*time.Second); err != nil {
				log.Fatalf("%s: %v", path.name, err)
			}
		}()
	}
	wg.Wait()

	for i, path := range paths {
		st := stats[i]
		goodput := float64(st.Bytes) / st.LastArrival.Seconds()
		fmt.Printf("\n  %-22s goodput %7.0f B/s, highest layer %d\n",
			path.name, goodput, st.HighestLayer)
		for l := 0; l <= st.HighestLayer && l < len(st.ByLayer); l++ {
			share := float64(st.ByLayer[l]) / float64(st.Bytes) * 100
			fmt.Printf("    layer %d: %7d bytes (%4.1f%%)\n", l, st.ByLayer[l], share)
		}
	}
	fmt.Println("\neach client got the quality its own bottleneck permits — the paper's §1.2 goal.")
}
