//go:build linux

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"

	"qav/internal/core"
	"qav/internal/netio"
	"qav/internal/rap"
)

// serverReady is the server child's first line.
type serverReady struct {
	Port       int    `json:"port"`
	Batch      string `json:"batch"`
	Sockets    string `json:"sockets"`
	Shards     int    `json:"shards"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// serverMark is the server child's own account of itself, taken when
// the generator says "mark": deltas between two marks are what one
// window cost.
type serverMark struct {
	usage
	Mallocs   uint64           `json:"mallocs"`
	HeapAlloc uint64           `json:"heap_alloc"`
	NumGC     uint32           `json:"num_gc"`
	Batches   int64            `json:"batches"` // srv.batchsz observations: one per batched write
	Stats     netio.MultiStats `json:"stats"`
}

func serverArgs(s *serveSpec) []string {
	return []string{"-role", "server",
		"-pkt", fmt.Sprint(s.Pkt), "-cap", fmt.Sprint(s.CapBps), "-c", fmt.Sprint(s.C)}
}

// serverMain is -role server: a one-shard MultiServer on loopback built
// only through netio's public API, answering mark/quit on stdin.
func serverMain(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	pkt := fs.Int("pkt", 512, "wire packet size")
	capBps := fs.Float64("cap", 16_000, "per-session rate cap, bytes/s")
	c := fs.Float64("c", 6_000, "per-layer consumption rate, bytes/s")
	if err := fs.Parse(args); err != nil {
		return err
	}
	conns, err := netio.ListenReuseport("udp4", "127.0.0.1:0", 1)
	if err != nil {
		return err
	}
	defer conns[0].Close()
	srv, err := netio.NewMultiServerConns(conns, netio.MultiConfig{
		QA:  core.Params{C: *c, Kmax: 2, MaxLayers: maxLayers, StartupSec: 0.2},
		RAP: rap.Config{PacketSize: *pkt, MaxRate: *capBps, InitialRTT: 0.02},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()

	out := json.NewEncoder(os.Stdout)
	out.Encode(serverReady{
		Port:       conns[0].LocalAddr().(*net.UDPAddr).Port,
		Batch:      string(srv.BatchKind()),
		Sockets:    string(srv.SocketMode()),
		Shards:     len(conns),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	})
	mark := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out.Encode(serverMark{
			usage:     readUsage(),
			Mallocs:   ms.Mallocs,
			HeapAlloc: ms.HeapAlloc,
			NumGC:     ms.NumGC,
			Batches:   srv.Metrics().Snapshot().Histograms["srv.batchsz"].Count,
			Stats:     srv.Stats(),
		})
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch strings.TrimSpace(in.Text()) {
		case "mark":
			mark()
		case "quit":
			mark()
			return nil
		}
		select {
		case err := <-served:
			return fmt.Errorf("server stopped: %v", err)
		default:
		}
	}
	return nil // stdin closed: the parent is gone or done
}
