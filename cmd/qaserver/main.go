// Command qaserver streams layered video data over UDP with RAP
// congestion control and quality adaptation, serving many clients
// concurrently from a sharded client table over batched I/O
// (netio.MultiServer). Pair it with qaclient, or load it with qaload.
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
	"net"
	"net/http"
	"os"
	"os/signal"

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
	shards := flag.Int("shards", 0, "client-table shards (0 = auto: one per core, max 8; explicit values above 8 are honored)")
	batch := flag.String("batch", "", "batch I/O kind: auto, mmsg, generic")
	sockets := flag.String("sockets", "", "socket layout: reuseport (default where available), demux")
	maxClients := flag.Int("max-clients", 4096, "concurrent stream cap (joins beyond it are refused)")
	metricsAddr := flag.String("metrics", "", "HTTP address serving current metrics as JSON (e.g. 127.0.0.1:9090; empty = disabled)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	kind := netio.BatchKind(*batch)
	if *batch == "auto" {
		kind = netio.BatchAuto
	}
	mode := netio.SocketMode(*sockets)
	if mode == "" {
		mode = netio.SocketDemux
		if netio.ReuseportAvailable() {
			mode = netio.SocketReuseport
		}
	}
	cfg := netio.MultiConfig{
		QA:         core.Params{C: *c, Kmax: *kmax, MaxLayers: *layers, StartupSec: 0.5},
		RAP:        transport.RAPConfig{PacketSize: *pkt, MaxRate: *maxRate, InitialRTT: 0.05},
		Shards:     *shards,
		BatchKind:  kind,
		MaxClients: *maxClients,
	}
	var srv *netio.MultiServer
	switch mode {
	case netio.SocketReuseport:
		n := *shards
		if n <= 0 {
			n = netio.DefaultShards()
		}
		conns, err := netio.ListenReuseport("udp", *listen, n)
		if err != nil {
			fatal(err)
		}
		for _, c := range conns {
			defer c.Close()
		}
		if srv, err = netio.NewMultiServerConns(conns, cfg); err != nil {
			fatal(err)
		}
	case netio.SocketDemux:
		la, err := net.ResolveUDPAddr("udp", *listen)
		if err != nil {
			fatal(err)
		}
		conn, err := net.ListenUDP("udp", la)
		if err != nil {
			fatal(err)
		}
		defer conn.Close()
		if srv, err = netio.NewMultiServer(conn, cfg); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -sockets mode %q", mode))
	}
	fmt.Printf("qaserver: listening on %s (C=%.0f B/s, Kmax=%d, %d layers, %s batch, %s sockets, max %d clients)\n",
		srv.Addr(), *c, *kmax, *layers, srv.BatchKind(), srv.SocketMode(), *maxClients)
	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			srv.WriteMetricsJSON(w)
		}))
	}
	err := srv.Serve(ctx)
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
