// Command qaserver streams layered video data over UDP with RAP
// congestion control and quality adaptation, serving many clients
// concurrently over batched I/O (netio.MultiServer): -shards N binds N
// SO_REUSEPORT sockets on the listen address, one shard goroutine each,
// and the kernel steers every client to one of them (one socket off
// linux). Pair it with qaclient, or load it with qaload.
//
// Examples:
//
//	qaserver -listen 127.0.0.1:9000 -c 20000 -kmax 2
//	qaserver -listen 127.0.0.1:9000 -shards 4 -metrics 127.0.0.1:9090
//	qaserver -max-clients 1   # one viewer at a time, as in the paper's experiments
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"

	"qav/internal/core"
	"qav/internal/netio"
	"qav/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9000", "UDP listen address")
	c := flag.Float64("c", 20_000, "per-layer consumption rate, bytes/s")
	kmax := flag.Int("kmax", 2, "smoothing factor")
	layers := flag.Int("layers", 8, "maximum encoded layers")
	pkt := flag.Int("pkt", 512, "packet size, bytes")
	maxRate := flag.Float64("max-rate", 0, "cap on per-client transmission rate, bytes/s (0 = none)")
	shards := 1 // one socket where SO_REUSEPORT groups do not exist, else one per core
	if netio.ReuseportAvailable() {
		shards = runtime.GOMAXPROCS(0)
	}
	flag.IntVar(&shards, "shards", shards, "SO_REUSEPORT sockets on the listen address, one shard each")
	maxClients := flag.Int("max-clients", 4096, "concurrent stream cap (joins beyond it are refused)")
	metricsAddr := flag.String("metrics", "", "HTTP address serving current metrics as JSON (e.g. 127.0.0.1:9090; empty = disabled)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	conns, err := netio.ListenReuseport("udp", *listen, shards)
	if err != nil {
		fatal(err)
	}
	for _, c := range conns {
		defer c.Close()
	}
	srv, err := netio.NewMultiServerConns(conns, netio.MultiConfig{
		QA:         core.Params{C: *c, Kmax: *kmax, MaxLayers: *layers, StartupSec: 0.5},
		RAP:        transport.RAPConfig{PacketSize: *pkt, MaxRate: *maxRate, InitialRTT: 0.05},
		MaxClients: *maxClients,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("qaserver: listening on %s (C=%.0f B/s, Kmax=%d, %d layers, %s batch, %d shards, max %d clients)\n",
		srv.Addr(), *c, *kmax, *layers, srv.BatchKind(), len(conns), *maxClients)
	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			srv.WriteMetricsJSON(w)
		}))
	}
	err = srv.Serve(ctx)
	st := srv.Stats()
	fmt.Printf("qaserver: done: accepted=%d sent=%d acked=%d backoffs=%d retransmits=%d bad=%d err=%v\n",
		st.Accepted, st.SentPkts, st.AckedPkts, st.Backoffs, st.Retransmits, st.BadPackets, err)
}

func serveMetrics(addr string, h http.Handler) {
	fmt.Printf("qaserver: metrics at http://%s/\n", addr)
	if err := http.ListenAndServe(addr, h); err != nil {
		fmt.Fprintln(os.Stderr, "qaserver: metrics endpoint:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qaserver:", err)
	os.Exit(1)
}
