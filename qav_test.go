package qav_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"qav"
)

func TestFacadeSimulate(t *testing.T) {
	cfg := qav.SingleQA(2)
	cfg.Duration = 20
	res, err := qav.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlayedSec < 10 {
		t.Fatalf("played only %.1fs", res.PlayedSec)
	}
	if hi, ok := res.Series.Get("qa.layers").Max(); !ok || hi < 2 {
		t.Fatal("never reached two layers")
	}
}

func TestFacadeSimulateAll(t *testing.T) {
	mk := func(kmax int) qav.SimConfig {
		cfg := qav.SingleQA(kmax)
		cfg.Duration = 15
		return cfg
	}
	cfgs := []qav.SimConfig{mk(2), mk(4)}
	results, err := qav.SimulateAll(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for i, res := range results {
		if res.Cfg.QA.Kmax != cfgs[i].QA.Kmax {
			t.Fatalf("result %d has Kmax %d, want %d: ordering lost", i, res.Cfg.QA.Kmax, cfgs[i].QA.Kmax)
		}
		if res.PlayedSec < 5 {
			t.Fatalf("run %d played only %.1fs", i, res.PlayedSec)
		}
	}
	// Determinism across the pool: same config, same outcome.
	single, err := qav.Simulate(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if single.PlayedSec != results[0].PlayedSec || single.StallSec != results[0].StallSec {
		t.Fatalf("pooled run diverged from direct run: (%v,%v) vs (%v,%v)",
			results[0].PlayedSec, results[0].StallSec, single.PlayedSec, single.StallSec)
	}
}

func TestFacadeControllerIntegration(t *testing.T) {
	// A downstream user integrating the controller with a custom
	// transport uses exactly these four calls.
	ctrl, err := qav.NewController(qav.Params{C: 1000, Kmax: 2, MaxLayers: 4, StartupSec: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for i := 0; i < 5000; i++ {
		layer := ctrl.PickLayer(now, 3500, 20_000, 500)
		ctrl.OnDelivered(now, layer, 500)
		now += 500.0 / 3500
	}
	if ctrl.ActiveLayers() < 3 {
		t.Fatalf("controller reached only %d layers", ctrl.ActiveLayers())
	}
	// Collapse to a tenth of a layer with a glacial recovery slope: the
	// recovery triangle dwarfs any accumulated buffering.
	ctrl.OnBackoff(now, 100, 2)
	if ctrl.ActiveLayers() >= 3 {
		t.Fatal("catastrophic backoff did not shed layers")
	}
}

func TestFacadeUDPEndToEnd(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv, err := qav.NewServer(conn, qav.ServerConfig{
		QA:  qav.Params{C: 10_000, Kmax: 2, MaxLayers: 4, StartupSec: 0.2},
		RAP: qav.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 100_000},

		MaxClients: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(ctx)
	}()

	stats, err := qav.DialStream(ctx, srv.Addr(), 2*time.Second)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets == 0 || stats.ByLayer[0] == 0 {
		t.Fatalf("no layered data received: %+v", stats)
	}
}

func TestFacadePresets(t *testing.T) {
	t1 := qav.T1(3, 1)
	if t1.QA.Kmax != 3 || t1.NumQA != 1 || t1.NumTCP != 10 {
		t.Fatalf("T1 preset wrong: %+v", t1)
	}
	t2 := qav.T2(4, 1)
	if t2.CBRRate != t2.BottleneckRate/2 || t2.CBRStart != 30 || t2.CBRStop != 60 {
		t.Fatalf("T2 preset wrong: %+v", t2)
	}
	if qav.SingleRAP().NumRAP != 1 {
		t.Fatal("SingleRAP preset wrong")
	}
}
