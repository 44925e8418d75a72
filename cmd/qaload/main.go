// Command qaload drives thousands of concurrent emulated streaming
// clients over loopback against the multi-client server, with the
// fleet's staggered-join logic, and reports goodput, Jain fairness,
// allocations per packet and heap stability; -soak turns those into
// assertions (CI runs it under -race). It measures nothing for the
// record: performance claims come from bench/ (bash bench/run.sh).
//
// By default it spins up an in-process netio.MultiServer on loopback —
// -shards N SO_REUSEPORT sockets, one shard goroutine each (one socket
// off linux) — and exercises the whole serving path end to end; point
// -addr at an external qaserver to load that instead.
//
// Examples:
//
//	qaload -clients 1000 -dur 10s -soak
//	qaload -clients 64 -dur 8s -batch generic      # unbatched I/O
//	qaload -clients 64 -dur 8s -shards 2 -soak     # two shard goroutines race
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"qav/internal/core"
	"qav/internal/netio"
	"qav/internal/transport"
)

// loadResult is what one run observed.
type loadResult struct {
	clients int
	dur     time.Duration

	pktsPerSec   float64
	goodputBps   float64
	jain         float64
	starved      int
	allocsPerPkt float64
	heapStart    uint64
	heapEnd      uint64

	srv netio.MultiStats // zero against an external server
}

// loadOpts is one run's full parameterization.
type loadOpts struct {
	addr    string
	kind    netio.BatchKind
	clients int
	dur     time.Duration
	stagger time.Duration
	shards  int
	c       float64
	kmax    int
	layers  int
	pkt     int
	maxRate float64
}

func main() {
	addr := flag.String("addr", "", "server address to load (empty = in-process MultiServer on loopback)")
	clients := flag.Int("clients", 1000, "concurrent emulated clients")
	dur := flag.Duration("dur", 10*time.Second, "stream duration each client requests")
	stagger := flag.Duration("stagger", time.Second, "join stagger window")
	shards := 1 // one socket where SO_REUSEPORT groups do not exist, else one per core
	if netio.ReuseportAvailable() {
		shards = runtime.GOMAXPROCS(0)
	}
	flag.IntVar(&shards, "shards", shards, "in-process server's SO_REUSEPORT sockets, one shard each")
	batch := flag.String("batch", "", "batch I/O kind: auto, mmsg, generic")
	// The defaults are chosen coherent: two layers (2 x 6000 B/s) fit
	// comfortably under the 16000 B/s rate cap, so per-client state
	// reaches a steady layer allocation instead of churning add/drop
	// at the cap forever.
	c := flag.Float64("c", 6_000, "per-layer consumption rate, bytes/s")
	kmax := flag.Int("kmax", 2, "smoothing factor")
	layers := flag.Int("layers", 8, "maximum encoded layers")
	pkt := flag.Int("pkt", 512, "packet size, bytes")
	maxRate := flag.Float64("max-rate", 16_000, "per-client rate cap, bytes/s (0 = none)")
	soak := flag.Bool("soak", false, "assert goodput, fairness, and heap stability; exit nonzero on violation")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run")
	flag.Parse()

	if *memprofile != "" {
		runtime.MemProfileRate = 1
	}

	kind := netio.BatchKind(*batch)
	if *batch == "auto" {
		kind = netio.BatchAuto
	}
	opts := loadOpts{
		addr:    *addr,
		kind:    kind,
		clients: *clients,
		dur:     *dur,
		stagger: *stagger,
		shards:  shards,
		c:       *c,
		kmax:    *kmax,
		layers:  *layers,
		pkt:     *pkt,
		maxRate: *maxRate,
	}

	res, err := runOnce(opts)
	if err != nil {
		fatal(err)
	}
	report(res)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if *soak {
		if err := soakAssert(res); err != nil {
			fatal(err)
		}
		fmt.Println("qaload: soak assertions passed")
	}
}

// runOnce performs one full load run.
func runOnce(o loadOpts) (*loadResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var srv *netio.MultiServer
	var srvWg sync.WaitGroup
	target := o.addr
	if target == "" {
		conns, err := netio.ListenReuseport("udp", "127.0.0.1:0", o.shards)
		if err != nil {
			return nil, err
		}
		for _, c := range conns {
			defer c.Close()
		}
		srv, err = netio.NewMultiServerConns(conns, netio.MultiConfig{
			QA:        core.Params{C: o.c, Kmax: o.kmax, MaxLayers: o.layers, StartupSec: 0.2},
			RAP:       transport.RAPConfig{PacketSize: o.pkt, MaxRate: o.maxRate, InitialRTT: 0.02},
			BatchKind: o.kind,
		})
		if err != nil {
			return nil, err
		}
		srvWg.Add(1)
		go func() {
			defer srvWg.Done()
			srv.Serve(ctx)
		}()
		target = srv.Addr()
		fmt.Printf("qaload: in-process server on %s (%s batch, %d shards, %d clients x %.0f B/s cap)\n",
			target, srv.BatchKind(), len(conns), o.clients, o.maxRate)
	}

	// Heap sampler: HeapAlloc every 250 ms over the run; start/end
	// medians of the 2nd and 4th quarters summarize stability.
	heap := make([]uint64, 0, 1024)
	var heapMu sync.Mutex
	sampleDone := make(chan struct{})
	go func() {
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-sampleDone:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				heapMu.Lock()
				heap = append(heap, ms.HeapAlloc)
				heapMu.Unlock()
			}
		}
	}()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res, err := netio.RunLoad(ctx, netio.LoadConfig{
		Addr:    target,
		Clients: o.clients,
		Dur:     o.dur,
		Stagger: o.stagger,
	})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	close(sampleDone)
	cancel()
	srvWg.Wait()
	if err != nil {
		return nil, err
	}

	b := &loadResult{
		clients:    o.clients,
		dur:        o.dur,
		pktsPerSec: float64(res.PktsTotal) / elapsed.Seconds(),
		goodputBps: res.GoodputTotal,
		jain:       res.Jain,
		starved:    res.Starved,
	}
	// Whole-process allocation rate per packet: with the send loop,
	// batch layer, and load clients all allocation-free at steady
	// state, this stays well under one.
	pkts := res.PktsTotal
	if srv != nil {
		b.srv = srv.Stats()
		pkts = b.srv.SentPkts
	}
	if pkts > 0 {
		b.allocsPerPkt = float64(ms1.Mallocs-ms0.Mallocs) / float64(pkts)
	}
	heapMu.Lock()
	if n := len(heap); n >= 8 {
		b.heapStart = medianU64(heap[n/4 : n/2])
		b.heapEnd = medianU64(heap[3*n/4:])
	} else if n > 0 {
		b.heapStart = heap[0]
		b.heapEnd = heap[n-1]
	}
	heapMu.Unlock()
	return b, nil
}

func report(b *loadResult) {
	fmt.Printf("qaload: %d clients, %.1fs: %.0f pkts/s, goodput %.0f B/s total, jain %.3f, starved %d, %.2f allocs/pkt, heap %.1f->%.1f MB\n",
		b.clients, b.dur.Seconds(), b.pktsPerSec, b.goodputBps, b.jain, b.starved,
		b.allocsPerPkt, float64(b.heapStart)/1e6, float64(b.heapEnd)/1e6)
	if st := b.srv; st.SentPkts > 0 {
		fmt.Printf("qaload: server sent=%d acked=%d backoffs=%d retrans-drops=%d bad=%d\n",
			st.SentPkts, st.AckedPkts, st.Backoffs, st.NackDrops, st.BadPackets)
	}
}

// soakAssert enforces the soak invariants: everyone was served, service
// was fair, the send path did not allocate per packet, and the heap did
// not creep over the run.
func soakAssert(b *loadResult) error {
	if b.starved > 0 {
		return fmt.Errorf("soak: %d of %d clients starved", b.starved, b.clients)
	}
	if b.goodputBps <= 0 {
		return fmt.Errorf("soak: zero aggregate goodput")
	}
	if b.jain < 0.5 {
		return fmt.Errorf("soak: Jain fairness %.3f < 0.5", b.jain)
	}
	if b.allocsPerPkt > 1.0 {
		return fmt.Errorf("soak: %.2f allocs per served packet (want < 1; the send loop itself must be 0)", b.allocsPerPkt)
	}
	if b.heapStart > 0 && float64(b.heapEnd) > 1.5*float64(b.heapStart)+8e6 {
		return fmt.Errorf("soak: heap grew %.1f MB -> %.1f MB over the run",
			float64(b.heapStart)/1e6, float64(b.heapEnd)/1e6)
	}
	return nil
}

func medianU64(v []uint64) uint64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]uint64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qaload:", err)
	os.Exit(1)
}
