// Command qaclient requests a layered stream from qaserver (optionally
// through the qapipe emulator) and reports what it received per layer.
//
// Example:
//
//	qaclient -server 127.0.0.1:9000 -dur 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"qav/internal/netio"
	"qav/internal/video"
)

func main() {
	server := flag.String("server", "127.0.0.1:9000", "server (or pipe) UDP address")
	dur := flag.Duration("dur", 10*time.Second, "stream duration to request")
	c := flag.Float64("c", 20_000, "per-layer consumption rate for the playout model, bytes/s")
	playout := flag.Bool("video", true, "attach the playout model (quality metrics + selective retransmission)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var cl *netio.Client
	var err error
	if *playout {
		cl, err = netio.DialVideo(*server, video.Config{C: *c, MaxLayers: 16})
	} else {
		cl, err = netio.Dial(*server)
	}
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	fmt.Printf("qaclient: requesting %v of stream from %s\n", *dur, *server)
	if err := cl.Stream(ctx, *dur); err != nil {
		fatal(err)
	}

	st := cl.Stats()
	elapsed := st.LastArrival.Seconds()
	fmt.Printf("qaclient: %d packets, %d bytes in %.1fs (%.0f B/s), reorders=%d\n",
		st.Packets, st.Bytes, elapsed, float64(st.Bytes)/elapsed, st.ReorderEvents)
	for l := 0; l <= st.HighestLayer && l < len(st.ByLayer); l++ {
		fmt.Printf("  layer %d: %8d bytes (%.0f B/s)\n", l, st.ByLayer[l], float64(st.ByLayer[l])/elapsed)
	}
	if *playout {
		pb := st.Playback
		fmt.Printf("playback: %.1fs played, %.2fs stalled (%d stalls), %.1f decodable layer-seconds\n",
			pb.PlayedSec, pb.StallSec, pb.Stalls, pb.DecodableLayerSec)
		fmt.Printf("repairs: %d NACKs sent, %d holes repaired, %d duplicates\n", st.NacksSent, st.Retransmits, st.Duplicates)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qaclient:", err)
	os.Exit(1)
}
